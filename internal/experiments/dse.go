package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// DSESweep is a design-space exploration across hardware configurations:
// it varies one Table III dimension at a time (tile count, NoC bandwidth,
// HBM bandwidth, scratchpad size) and reports Adyna's absolute throughput
// and its speedup over M-tile on the given workload. Artifact repositories
// of accelerator papers ship exactly this sensitivity study; it shows which
// resources Adyna's advantage depends on.
func DSESweep(opt Options, model string) (*metrics.Table, error) {
	type variant struct {
		name   string
		mutate func(*hw.Config)
	}
	variants := []variant{
		{"baseline (Table III)", func(c *hw.Config) {}},
		{"8x8 tiles", func(c *hw.Config) { c.TilesX, c.TilesY = 8, 8 }},
		{"16x16 tiles", func(c *hw.Config) { c.TilesX, c.TilesY = 16, 16 }},
		{"NoC /2 (96 GB/s)", func(c *hw.Config) { c.NoCPerTileGBps = 96 }},
		{"NoC x2 (384 GB/s)", func(c *hw.Config) { c.NoCPerTileGBps = 384 }},
		{"HBM /2 (921 GB/s)", func(c *hw.Config) { c.HBMTotalGBps = 921 }},
		{"HBM x2 (3684 GB/s)", func(c *hw.Config) { c.HBMTotalGBps = 3684 }},
		{"scratchpad /2 (256 kB)", func(c *hw.Config) {
			c.ScratchpadBytes = 256 << 10
			c.KernelBudgetBytes = c.ScratchpadBytes / 20 // keep the 5% rule
		}},
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("Hardware design-space exploration (%s)", model),
		Columns: []string{"Variant", "Adyna cyc/batch", "M-tile cyc/batch",
			"Speedup", "Adyna PE util"},
	}
	// Validate every variant up front, then fan the 2·|variants| independent
	// simulations out on one shared trace (it does not depend on the
	// hardware); rows are assembled afterwards in variant order.
	var jobs []core.Job
	for _, v := range variants {
		rc := opt.RC
		v.mutate(&rc.HW)
		if err := rc.HW.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: variant %q: %w", v.name, err)
		}
		jobs = append(jobs, vsMTile("dse", v.name, model, rc)...)
	}
	rs, err := core.RunJobs(opt.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		mt, ad := rs[2*i], rs[2*i+1]
		t.AddRow(v.name,
			metrics.F(ad.CyclesPerBatch(), 0),
			metrics.F(mt.CyclesPerBatch(), 0),
			metrics.F(ad.SpeedupOver(mt), 2),
			metrics.F(ad.PEUtil, 3))
	}
	return t, nil
}

// LatencyTable reports per-batch completion-latency percentiles of the
// pipelined machine designs — the serving-oriented view (throughput alone
// hides queueing: a batch admitted at the end of a window waits behind the
// whole window).
func LatencyTable(opt Options, model string) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Per-batch completion latency (%s, cycles, window-relative)", model),
		Columns: []string{"Design", "p50", "p95", "p99"},
	}
	designs := []core.Design{core.DesignMTile, core.DesignAdyna}
	all, err := runner.Map(opt.Workers, len(designs), func(i int) ([]float64, error) {
		rc := opt.RC
		rc.TraceName = fmt.Sprintf("latency/%s/%s", designs[i], model)
		return core.BatchLatencies(designs[i], model, rc)
	})
	if err != nil {
		return nil, err
	}
	for i, d := range designs {
		lats := all[i]
		t.AddRow(string(d),
			metrics.F(metrics.Percentile(lats, 0.50), 0),
			metrics.F(metrics.Percentile(lats, 0.95), 0),
			metrics.F(metrics.Percentile(lats, 0.99), 0))
	}
	return t, nil
}
