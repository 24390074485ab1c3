package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim/simtest"
	"repro/internal/telemetry"
)

// fleetArtifacts runs one fleet scenario and captures everything the
// determinism guarantee covers: the per-replica outcome logs, the full
// counters snapshot (fleet + replicas + shared plan cache), and — when trace
// is set — the validated telemetry JSON.
func fleetArtifacts(t *testing.T, cfg Config, mix MixConfig, trace bool) simtest.Artifacts {
	t.Helper()
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
		t.Fatalf("Serve: %v", err)
	}
	return simtest.Artifacts{
		Outcomes: fleetLog(rep),
		Snapshot: simtest.Render(t, f.Snapshot()),
		Trace:    simtest.TraceBytes(t, tr),
	}
}

// TestFleetParallelDeterminismWall is the 50-seed property wall: randomized
// small scenarios (drift thresholds, routing policies, fault schedules, and
// arrival mixes all seed-derived) each run at the default GOMAXPROCS as the
// reference and once more under a seed-cycled variant drawn from GOMAXPROCS
// 1/4/8 and reversed replica bring-up order. Every variant must be
// byte-identical to its reference: neither the host's parallelism nor the
// spec's replica order may leak into results.
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
		procs := gomax[int(seed)%len(gomax)]
		trace := seed%10 == 0

		ref := fleetArtifacts(t, cfg, mix, trace)
		old := runtime.GOMAXPROCS(procs)
		got := fleetArtifacts(t, variant, mix, trace)
		runtime.GOMAXPROCS(old)
		simtest.Diff(t, fmt.Sprintf("seed %d (GOMAXPROCS=%d)", seed, procs), ref, got)
	}
}
