package plancache

import (
	"bytes"
	"testing"

	"repro/internal/accel"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestGetOrScheduleForReturnsStoredPlan pins the shared cache's hit rule:
// plans are immutable, so every hit returns the stored plan itself, whether
// the requester stored it (a self-hit), another replica did (a cross-origin
// hit, counted in SharedHits) or no origin is named. Running the shared
// full-kernel plan on a machine must leave its encoding unchanged.
func TestGetOrScheduleForReturnsStoredPlan(t *testing.T) {
	w, err := models.ByName("moe", 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.Default()
	pol := sched.FullKernelIdeal()
	comp := sched.NewCompiler(w.Graph)
	prof := profiler.New(w.Graph)
	observe(t, w, prof, workload.NewSource(1), 4)

	c := newBounded(w.Graph, Config{}, 8)
	solved, kind, err := c.GetOrScheduleFor("rep0", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != Miss {
		t.Fatalf("first call: kind=%v, want Miss", kind)
	}
	before := encodePlan(t, solved)
	for _, origin := range []string{"rep0", "rep1"} {
		got, kind, err := c.GetOrScheduleFor(origin, cfg, comp, pol, prof)
		if err != nil {
			t.Fatal(err)
		}
		if kind != HitExact || got != solved {
			t.Fatalf("hit from %q: kind=%v, stored pointer=%v; want an exact hit on the stored plan", origin, kind, got == solved)
		}
	}
	if st := c.Stats(); st.SharedHits != 1 {
		t.Fatalf("SharedHits=%d, want 1", st.SharedHits)
	}

	anon := newBounded(w.Graph, Config{}, 8)
	first, _, err := anon.GetOrScheduleFor("", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	again, kind, err := anon.GetOrScheduleFor("", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != HitExact || again != first {
		t.Fatalf("anonymous hit: kind=%v, stored pointer=%v; want an exact hit on the stored plan", kind, again == first)
	}

	m, err := accel.New(cfg, w.Graph, accel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(solved); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(w.GenTrace(workload.NewSource(2), 4, 32)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePlan(t, solved), before) {
		t.Fatal("running the shared full-kernel plan changed its encoding")
	}
}
