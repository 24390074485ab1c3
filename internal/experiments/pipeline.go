package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// Pipeline measures batch pipelining (the -pipeline flag): one single-server
// burst served at pipeline depth 1 and at depth, compared on virtual-time
// makespan. Overlapping batch k+1's admission with batch k's compute is a
// semantic improvement rather than a host-parallelism one, so it shows up at
// any core count.
func Pipeline(opt Options, depth int) (*metrics.Table, error) {
	if depth < 2 {
		depth = 4
	}
	// A burst: arrivals far faster than service, so overlapping admission
	// with compute shortens the makespan.
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
		Title:   fmt.Sprintf("Batch pipelining: depth 1 vs depth %d", depth),
		Columns: []string{"Metric", "depth 1", fmt.Sprintf("depth %d", depth), "gain"},
	}
	t.AddRow("makespan (cycles)",
		fmt.Sprint(flat.FinalCycles), fmt.Sprint(piped.FinalCycles),
		metrics.Gain(float64(piped.FinalCycles), float64(flat.FinalCycles)))
	t.AddRow("served / missed",
		fmt.Sprintf("%d / %d", flat.Served, flat.Missed),
		fmt.Sprintf("%d / %d", piped.Served, piped.Missed), "")
	return t, nil
}
