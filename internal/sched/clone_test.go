package sched

import (
	"bytes"
	"testing"

	"repro/internal/hw"
)

// TestPlanCloneIndependent pins the property the shared plan cache's
// copy-on-hit relies on: a clone is observationally identical to the
// original (byte-identical encoding, identical entity evaluations) while
// sharing no mutable state — exercising the clone's eval memo must leave the
// original's untouched.
func TestPlanCloneIndependent(t *testing.T) {
	cfg := hw.Default()
	plan, w, _ := scheduleModel(t, "skipnet", Adyna(), 16)

	h0, m0 := plan.CacheStats()
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

	// Drive evaluations through the clone only: the original's memo must
	// stay empty, proving the two plans share no cache.
	for _, seg := range cp.Segments {
		for _, op := range seg.Entities {
			lead := w.Graph.Op(op.Lead)
			if !lead.Dynamic || lead.Space[0] == 0 {
				continue
			}
			for k := range op.Options {
				if _, err := cp.EvaluateEntityDensity(cfg, w.Graph, op, op.Options[k], lead.MaxUnits/2, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if h, m := cp.CacheStats(); h+m == 0 {
		t.Fatal("clone recorded no eval traffic")
	}
	if h, m := plan.CacheStats(); h != h0 || m != m0 {
		t.Fatalf("original's memo touched through the clone: hits %d->%d misses %d->%d", h0, h, m0, m)
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
