package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim/simtest"
	"repro/internal/telemetry"
)

// fleetArtifacts runs one fleet scenario at the given worker count and
// captures everything the determinism guarantee covers: the per-replica
// outcome logs, the full counters snapshot (fleet + replicas + shared plan
// cache), and — when trace is set — the validated telemetry JSON.
func fleetArtifacts(t *testing.T, cfg Config, mix MixConfig, workers int, trace bool) simtest.Artifacts {
	t.Helper()
	cfg.Workers = workers
	var tr *telemetry.Trace
	if trace {
		tr = telemetry.NewTrace()
		cfg.Base.RC.Trace = tr
	}
	src, err := NewMixSource(mix)
	if err != nil {
		t.Fatalf("NewMixSource: %v", err)
	}
	f := mustFleet(t, cfg)
	rep, err := f.Serve(src)
	if err != nil {
		t.Fatalf("Serve (workers=%d): %v", workers, err)
	}
	return simtest.Artifacts{
		Outcomes: fleetLog(rep),
		Snapshot: simtest.Render(t, f.Snapshot()),
		Trace:    simtest.TraceBytes(t, tr),
	}
}

// TestFleetParallelEquivalenceHeadline pins the tentpole contract on the
// headline scenario (four replicas, drifting three-class mix, shared plan
// cache with nearest hits, affinity routing, traces on): stepping replicas
// concurrently in runner.Map windows must reproduce the sequential sweep
// byte-for-byte — outcome logs, snapshots, and telemetry traces — for every
// worker count.
func TestFleetParallelEquivalenceHeadline(t *testing.T) {
	seq := fleetArtifacts(t, headlineConfig(PolicyAffinity), headlineMix(), 1, true)
	for _, workers := range []int{2, 4, 8} {
		par := fleetArtifacts(t, headlineConfig(PolicyAffinity), headlineMix(), workers, true)
		simtest.Diff(t, fmt.Sprintf("workers=%d vs sequential", workers), seq, par)
	}
}

// TestFleetParallelEquivalenceUnderFaults repeats the equivalence check with
// replica-level fault domains in force: kills and brown-outs evict backlogs
// mid-window, re-routes interleave with concurrent stepping, and the frozen
// clocks of down replicas must thaw identically on repair.
func TestFleetParallelEquivalenceUnderFaults(t *testing.T) {
	mix := headlineMix()
	mix.Requests = 160
	span := int64(float64(mix.Requests) * mix.MeanGapCycles)
	cfg := headlineConfig(PolicyJSQ)
	cfg.ReplicaFaults = chaosSchedule(7, len(cfg.Replicas), span)
	seq := fleetArtifacts(t, cfg, mix, 1, false)
	for _, workers := range []int{4, 8} {
		par := fleetArtifacts(t, cfg, mix, workers, false)
		simtest.Diff(t, fmt.Sprintf("faults workers=%d vs sequential", workers), seq, par)
	}
}

// TestFleetParallelAOTSharedCache steps replicas concurrently over one shared
// plan cache that every replica's bring-up filled ahead of time through the
// fleet's one compile memo. The memo stays reachable from every plan and
// clone — the full-kernel design compiles through it on demand mid-window —
// so under -race this audits the compiler's lock and the clones' private
// eval memos. Outcomes must match the sequential sweep.
func TestFleetParallelAOTSharedCache(t *testing.T) {
	mix := headlineMix()
	mix.Requests = 96
	for _, design := range []core.Design{core.DesignAdyna, core.DesignFullKernel} {
		cfg := headlineConfig(PolicyAffinity)
		cfg.Base.Design = design
		cfg.Base.PlanCacheAOT = true
		seq := fleetArtifacts(t, cfg, mix, 1, false)
		par := fleetArtifacts(t, cfg, mix, 4, false)
		simtest.Diff(t, fmt.Sprintf("%s AOT workers=4 vs sequential", design), seq, par)
	}
}

// TestFleetParallelDeterminismWall is the 50-seed property wall: randomized
// small scenarios (drift thresholds, routing policies, fault schedules, and
// arrival mixes all seed-derived) each run sequentially as the reference and
// once more under a seed-cycled variant drawn from shard counts 1..8,
// GOMAXPROCS 1/4/8, and reversed replica bring-up order. Every variant must
// be byte-identical to its reference. Run under -race in CI, this is also
// the data-race audit of the parallel engine.
func TestFleetParallelDeterminismWall(t *testing.T) {
	const replicas = 3
	gomax := []int{1, 4, 8}
	for seed := int64(1); seed <= 50; seed++ {
		mix := MixConfig{
			Model: "skipnet", Classes: 2 + int(seed%2), Requests: 48, Samples: 4,
			MeanGapCycles: 40_000, Seed: seed, MixWalkSD: 0.10 * float64(seed%3),
		}
		base := fleetBase("skipnet")
		base.RC.Warmup = 4
		base.PlanCache = true
		base.PlanCacheNearest = seed%2 == 0
		base.PlanCacheMaxDist = 0.10
		base.HostReschedCycles = 200_000
		base.DriftThreshold = 0.02 + 0.02*float64(seed%4)
		base.CheckEvery = 2
		base.CooldownBatches = 4
		cfg := Config{
			Base:     base,
			Replicas: HomogeneousSpecs(replicas, base.RC.HW),
			Policy:   Policies()[int(seed)%len(Policies())],
		}
		if seed%3 == 0 {
			span := int64(float64(mix.Requests) * mix.MeanGapCycles)
			cfg.ReplicaFaults = chaosSchedule(seed, replicas, span)
		}
		variant := cfg
		if seed%2 == 1 {
			specs := append([]ReplicaSpec{}, cfg.Replicas...)
			for i, j := 0, len(specs)-1; i < j; i, j = i+1, j-1 {
				specs[i], specs[j] = specs[j], specs[i]
			}
			variant.Replicas = specs
		}
		workers := int(seed%8) + 1
		trace := seed%10 == 0

		ref := fleetArtifacts(t, cfg, mix, 1, trace)
		old := runtime.GOMAXPROCS(gomax[int(seed)%len(gomax)])
		par := fleetArtifacts(t, variant, mix, workers, trace)
		runtime.GOMAXPROCS(old)
		simtest.Diff(t, fmt.Sprintf("seed %d (workers=%d)", seed, workers), ref, par)
	}
}
