package sched

import (
	"bytes"
	"testing"

	"repro/internal/hw"
)

// TestPlanCloneIndependent pins the property the shared plan cache's
// copy-on-hit relies on: a clone is observationally identical to the
// original (byte-identical encoding, identical entity evaluations) while
// sharing no full-kernel on-demand store: running the clone must leave the
// original's stores empty.
func TestPlanCloneIndependent(t *testing.T) {
	cfg := hw.Default()
	plan, w, _ := scheduleModel(t, "skipnet", FullKernelIdeal(), 16)

	cp := plan.Clone()
	if cp == plan {
		t.Fatal("Clone returned the receiver")
	}
	var a, b bytes.Buffer
	if err := plan.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := cp.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("clone encodes differently from the original")
	}

	// Drive evaluations through the clone only: its on-demand stores fill,
	// the original's must stay empty.
	filled := 0
	for si, seg := range cp.Segments {
		for ei, op := range seg.Entities {
			lead := w.Graph.Op(op.Lead)
			if !lead.Dynamic || lead.Space[0] == 0 {
				continue
			}
			for k, opt := range op.Options {
				got, err := cp.EvaluateEntityDensity(cfg, w.Graph, op, opt, lead.MaxUnits/2, 1)
				if err != nil {
					t.Fatal(err)
				}
				filled += len(opt.dense)
				if orig := plan.Segments[si].Entities[ei].Options[k]; orig.dense != nil {
					t.Fatalf("option %d of %s: the clone's compile landed in the original's store", k, lead.Name)
				}
				want, err := referenceEvaluateEntity(cfg, w.Graph, plan.Policy, op, opt, lead.MaxUnits/2, 1)
				if err != nil || got != want {
					t.Fatalf("option %d of %s: clone costs %+v, want %+v (%v)", k, lead.Name, got, want, err)
				}
			}
		}
	}
	if filled == 0 {
		t.Fatal("the clone compiled no full kernel on demand; the check compares nothing")
	}
}

// TestPlanCloneSharesOnlyKernels pins what a clone shares: the immutable
// kernel sets and the locked compile memo, never the options or their
// on-demand stores. A full-kernel clone's on-demand compiles hit the kernels
// its source already compiled, so they run no new blocking search.
func TestPlanCloneSharesOnlyKernels(t *testing.T) {
	cfg := hw.Default()
	for _, pol := range []Policy{Adyna(), FullKernelIdeal()} {
		plan, w, _ := scheduleModel(t, "skipnet", pol, 16)
		cp := plan.Clone()
		if cp.comp != plan.comp {
			t.Fatal("clone dropped the original's compile memo")
		}
		// Drive the original first: under full-kernel this compiles every
		// (option, dyn value) the clone will ask for.
		evaluate := func(p *Plan) {
			for _, seg := range p.Segments {
				for _, op := range seg.Entities {
					lead := op.Lead
					for _, o := range op.Options {
						if _, err := p.EvaluateEntityDensity(cfg, w.Graph, op, o, w.Graph.Op(lead).MaxUnits/2+1, 1); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		evaluate(plan)
		_, searches := plan.comp.Stats()
		for si, seg := range cp.Segments {
			for _, op := range seg.Entities {
				lead := op.Lead
				orig, _ := plan.Segments[si].Entity(lead)
				for k, o := range op.Options {
					if o == orig.Options[k] || o.set != orig.Options[k].set || o.dense != nil {
						t.Fatalf("option %d of %s: want a new option, without an on-demand store, over the same kernel set",
							k, w.Graph.Op(lead).Name)
					}
				}
			}
		}
		evaluate(cp)
		if _, after := plan.comp.Stats(); after != searches {
			t.Fatalf("%+v: the clone's on-demand compiles ran %d new searches, want 0", pol, after-searches)
		}
	}
}
