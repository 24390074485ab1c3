package accel

import (
	"math/rand"
	"testing"

	"repro/internal/graph"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestPEUtilizationNeverExceedsOne is the regression guard for stage
// overlap: if two jobs ever run on the same tiles simultaneously, issued
// MACs exceed the chip's physical capacity and utilization crosses 1.
func TestPEUtilizationNeverExceedsOne(t *testing.T) {
	cfg := hw.Default()
	for _, name := range models.Names() {
		for _, pol := range []sched.Policy{sched.MTile(), sched.Adyna()} {
			w, err := models.ByName(name, 32)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(cfg, w.Graph, Options{})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := sched.Schedule(cfg, w.Graph, pol, m.Profiler())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadPlan(plan); err != nil {
				t.Fatal(err)
			}
			src := workload.NewSource(9)
			if err := m.Run(w.GenTrace(src, 6, 32)); err != nil {
				t.Fatal(err)
			}
			if u := m.PEUtilization(); u > 1.0 {
				t.Fatalf("%s: PE utilization %v > 1 — jobs overlap on the same tiles", name, u)
			}
			if u := m.HBMUtilization(); u > 1.0 {
				t.Fatalf("%s: HBM utilization %v > 1", name, u)
			}
		}
	}
}

// TestThroughputBoundedByBottleneckStage checks the pipeline against an
// analytic lower bound: total time can never beat the per-batch work of the
// most loaded tile group.
func TestThroughputBoundedByBottleneckStage(t *testing.T) {
	cfg := hw.Default()
	w, err := models.ByName("skipnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), m.Profiler())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(3)
	trace := w.GenTrace(src, 10, 64)
	// Analytic bound: sum over batches of the slowest entity's eval time.
	var bound int64
	for _, b := range trace {
		units, err := w.Graph.AssignUnits(nil, b.Units, b.Routing)
		if err != nil {
			t.Fatal(err)
		}
		var worst int64
		for _, seg := range plan.Segments {
			for _, p := range seg.Entities {
				ev, err := plan.EvaluateEntityDensity(cfg, w.Graph, p, p.Options[0], units[p.Lead], 1)
				if err != nil {
					t.Fatal(err)
				}
				if ev.Cycles > worst {
					worst = ev.Cycles
				}
			}
		}
		bound += worst
	}
	if err := m.Run(trace); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Cycles; got < bound {
		t.Fatalf("simulated %d cycles beats the bottleneck bound %d — pipeline overlap is unphysical", got, bound)
	}
}

// TestRandomRoutingNeverDeadlocks drives the machine with adversarial random
// routings (including empty branches and extreme skew) and checks that every
// run completes with all processes finished.
func TestRandomRoutingNeverDeadlocks(t *testing.T) {
	cfg := hw.Default()
	w, err := models.ByName("fbsnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), m.Profiler())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var batches []workload.Batch
	for i := 0; i < 12; i++ {
		rt := make(graph.BatchRouting, len(w.Graph.Switches()))
		for o, swID := range w.Graph.Switches() {
			sw := w.Graph.Op(swID)
			branches := make([][]int32, sw.NumBranches)
			switch i % 3 {
			case 0: // everything on one random branch
				k := rng.Intn(sw.NumBranches)
				for u := 0; u < 16; u++ {
					branches[k] = append(branches[k], int32(u))
				}
			case 1: // one unit per branch, rest on the last
				for u := 0; u < 16; u++ {
					k := u
					if k >= sw.NumBranches {
						k = sw.NumBranches - 1
					}
					branches[k] = append(branches[k], int32(u))
				}
			default: // uniform random fan-out
				for u := 0; u < 16; u++ {
					k := rng.Intn(sw.NumBranches)
					branches[k] = append(branches[k], int32(u))
				}
			}
			rt[o] = graph.Routing{Branch: branches}
		}
		batches = append(batches, workload.Batch{Index: i, Units: 16, Routing: rt})
	}
	if err := m.Run(batches); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Batches != 12 {
		t.Fatalf("only %d of 12 batches completed", m.Stats().Batches)
	}
}
