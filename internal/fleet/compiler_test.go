package fleet

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim/simtest"
)

// bringupSearches brings a fleet up on the given specs and returns the
// blocking searches its compiler ran, checking that every replica shares
// that one compiler and its graph.
func bringupSearches(t testing.TB, specs []ReplicaSpec) int64 {
	t.Helper()
	cfg := headlineConfig(PolicyAffinity)
	cfg.Replicas = specs
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	first := f.reps[0].srv.Setup()
	for _, r := range f.reps[1:] {
		if s := r.srv.Setup(); s.Comp != first.Comp || s.W.Graph != first.W.Graph {
			t.Fatalf("replica %s brought up on its own compiler or graph", r.name)
		}
	}
	_, searches := first.Comp.Stats()
	return searches
}

// TestFleetCompilesOnce is the counted gate on fleet bring-up: a homogeneous
// four-replica fleet runs exactly as many blocking searches as one replica,
// and a replica on another kernel-relevant config adds only that config's
// kernels.
func TestFleetCompilesOnce(t *testing.T) {
	base := headlineConfig(PolicyAffinity).Base.RC.HW
	other := base
	other.HBMDerate = 0.5
	one := bringupSearches(t, HomogeneousSpecs(1, base))
	if one == 0 {
		t.Fatal("bring-up ran no blocking search")
	}
	if four := bringupSearches(t, HomogeneousSpecs(4, base)); four != one {
		t.Fatalf("4-replica bring-up ran %d searches, 1-replica %d", four, one)
	}
	alone := bringupSearches(t, []ReplicaSpec{{Name: "r1", HW: other}})
	mixed := append(HomogeneousSpecs(2, base), ReplicaSpec{Name: "r3", HW: other})
	if got := bringupSearches(t, mixed); got != one+alone {
		t.Fatalf("mixed bring-up ran %d searches, want %d + %d", got, one, alone)
	}
}

// TestFleetParallelSharedCompiler steps replicas on two goroutines with the
// plan cache off, so every drift re-plan runs Compiler.Schedule concurrently
// on the shared compiler outside any cache lock; the full-kernel design also
// compiles on demand through it mid-window. Under -race this is the audit of
// the compiler's lock. Outcomes must match the sequential sweep.
func TestFleetParallelSharedCompiler(t *testing.T) {
	mix := headlineMix()
	mix.Requests = 96
	mix.MeanGapCycles = 100_000 // backlogs build, so replicas re-plan in the same window
	for _, design := range []core.Design{core.DesignAdyna, core.DesignFullKernel} {
		cfg := headlineConfig(PolicyRR)
		cfg.Base.Design = design
		cfg.Base.PlanCache, cfg.Base.PlanCacheNearest = false, false
		cfg.Base.DriftThreshold = 0.01
		cfg.Base.CheckEvery, cfg.Base.CooldownBatches = 1, 1
		seq := fleetArtifacts(t, cfg, mix, 1, false)

		cfg.Workers = 2
		f := mustFleet(t, cfg)
		comp := f.reps[0].srv.Setup().Comp
		before, _ := comp.Stats()
		src, err := NewMixSource(mix)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Serve(src)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if rep.Reschedules == 0 {
			t.Fatalf("%s: no re-plan ran", design)
		}
		if after, _ := comp.Stats(); after == before {
			t.Fatalf("%s: serving made no kernel lookup", design)
		}
		simtest.Diff(t, fmt.Sprintf("%s shared compiler workers=2 vs sequential", design), seq,
			simtest.Artifacts{Outcomes: fleetLog(rep), Snapshot: simtest.Render(t, f.Snapshot())})
	}
}
