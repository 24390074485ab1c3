package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// Simpar exercises the parallel engine end to end and reports both of its
// halves against their sequential baselines on identical inputs:
//
//   - Fleet stepping (the -simpar flag): the same four-replica drifting-mix
//     scenario served twice — once with the legacy sequential replica sweep
//     (Workers=1) and once stepping replicas concurrently in one runner.Map
//     window per router step (Workers=workers) — wall-clock timed, with
//     the rendered reports and counter snapshots diffed byte for byte. The
//     speedup column is host parallelism: it tracks available cores, so a
//     single-core machine honestly reports ~1.0x while the simulated results
//     stay identical.
//   - Batch pipelining (the -pipeline flag): one single-server burst served
//     at pipeline depth 1 and at depth, compared on virtual-time makespan —
//     a semantic improvement (batch k+1 admission overlaps batch k compute)
//     rather than a host-parallelism one, so it shows up at any core count.
//
// The byte-identity check is the experiment's real claim; the timings
// quantify what that determinism guarantee costs (nothing) and buys.
func Simpar(opt Options, workers, depth int) (*metrics.Table, error) {
	if workers < 2 {
		workers = 2
	}
	if depth < 2 {
		depth = 4
	}

	// Fleet half: the affinity-routing headline scenario at reduced scale.
	requests := 24 * opt.RC.Batches // quick: 576, full: 4800
	base := serve.Config{
		Model:             "moe",
		RC:                core.DefaultRunConfig(),
		MaxBatch:          32,
		SLOCycles:         50_000_000,
		QueueCapSamples:   4096,
		Reschedule:        true,
		DriftThreshold:    0.045,
		CheckEvery:        4,
		CooldownBatches:   8,
		PlanCache:         true,
		PlanCacheNearest:  true,
		PlanCacheMaxDist:  0.10,
		HostReschedCycles: 1_500_000,
	}
	base.RC.Batch = 32
	base.RC.Warmup = 8
	base.RC.Seed = opt.RC.Seed
	base.RC.Trace = opt.RC.Trace
	mix := fleet.MixConfig{
		Model:         "moe",
		Classes:       3,
		Requests:      requests,
		Samples:       32,
		MeanGapCycles: 1_200_000,
		Seed:          opt.RC.Seed + 10,
		MixWalkSD:     0.20,
	}
	runFleet := func(w int) (string, *fleet.Report, time.Duration, error) {
		cfg := fleet.Config{
			Base:     base,
			Replicas: fleet.HomogeneousSpecs(4, base.RC.HW),
			Policy:   fleet.PolicyAffinity,
			Workers:  w,
		}
		f, err := fleet.New(cfg)
		if err != nil {
			return "", nil, 0, fmt.Errorf("fleet.New: %w", err)
		}
		src, err := fleet.NewMixSource(mix)
		if err != nil {
			return "", nil, 0, fmt.Errorf("fleet.NewMixSource: %w", err)
		}
		start := time.Now()
		rep, err := f.Serve(src)
		elapsed := time.Since(start)
		if err != nil {
			return "", nil, 0, fmt.Errorf("fleet.Serve (workers=%d): %w", w, err)
		}
		snap, err := json.Marshal(f.Snapshot())
		if err != nil {
			return "", nil, 0, err
		}
		return rep.String() + "\n" + string(snap), rep, elapsed, nil
	}
	seqArt, seqRep, seqWall, err := runFleet(1)
	if err != nil {
		return nil, err
	}
	parArt, _, parWall, err := runFleet(workers)
	if err != nil {
		return nil, err
	}
	identical := "byte-identical"
	if seqArt != parArt {
		identical = "DIVERGED"
	}

	// Pipeline half: a single-server burst (arrivals far faster than
	// service) where overlapping admission with compute shortens the
	// virtual-time makespan.
	pcfg := serve.Config{
		Model:           "moe",
		RC:              core.DefaultRunConfig(),
		MaxBatch:        16,
		SLOCycles:       50_000_000,
		QueueCapSamples: 4096,
		CheckEvery:      4,
		CooldownBatches: 8,
	}
	pcfg.RC.Batch = 16
	pcfg.RC.Warmup = 8
	pcfg.RC.Seed = opt.RC.Seed
	pcfg.RC.Trace = opt.RC.Trace
	runPipe := func(d int) (*serve.Report, error) {
		cfg := pcfg
		cfg.PipelineDepth = d
		s, err := serve.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("serve.New: %w", err)
		}
		rep, err := s.Serve(serve.NewSynthetic(12*opt.RC.Batches, 15_000, opt.RC.Seed+2, nil))
		if err != nil {
			return nil, fmt.Errorf("serve.Serve (pipeline=%d): %w", d, err)
		}
		return rep, nil
	}
	flat, err := runPipe(1)
	if err != nil {
		return nil, err
	}
	piped, err := runPipe(depth)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   fmt.Sprintf("Parallel engine: concurrent fleet stepping (workers=%d) and batch pipelining (depth=%d)", workers, depth),
		Columns: []string{"Metric", "sequential", "parallel", "gain"},
	}
	t.AddRow("fleet wall-clock (ms)",
		metrics.F(seqWall.Seconds()*1e3, 1), metrics.F(parWall.Seconds()*1e3, 1),
		metrics.Gain(parWall.Seconds(), seqWall.Seconds()))
	t.AddRow("fleet artifacts (report+snapshot)", "reference", identical, "")
	t.AddRow("fleet requests / p99 (cycles)",
		fmt.Sprintf("%d / %s", seqRep.Requests, metrics.F(seqRep.Latency.P99, 0)), "same", "")
	t.AddRow("pipeline makespan (cycles)",
		fmt.Sprint(flat.FinalCycles), fmt.Sprint(piped.FinalCycles),
		metrics.Gain(float64(piped.FinalCycles), float64(flat.FinalCycles)))
	t.AddRow("pipeline served / missed",
		fmt.Sprintf("%d / %d", flat.Served, flat.Missed),
		fmt.Sprintf("%d / %d", piped.Served, piped.Missed), "")
	return t, nil
}
