// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IX). Each experiment returns printable tables/series;
// the cmd/experiments binary and the repository-root benchmarks are both
// thin wrappers around this package, so the numbers they report always
// agree.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/power"
)

// Options parameterize an experiment run.
type Options struct {
	RC core.RunConfig
	// Workers bounds the worker pool the sweeps fan their independent
	// simulations out on: 0 (the default) uses one worker per CPU,
	// runner.Serial (1) forces the sequential path. Results are identical
	// either way; only wall-clock time changes.
	Workers int
}

// Default returns the full-scale evaluation options (batch 128, 200
// measured batches, 40 warmup batches).
func Default() Options {
	return Options{RC: core.DefaultRunConfig()}
}

// Quick returns reduced-scale options for benchmarks and smoke tests.
func Quick() Options {
	rc := core.DefaultRunConfig()
	rc.Batch = 32
	rc.Batches = 24
	rc.Warmup = 8
	return Options{RC: rc}
}

// Matrix holds the shared simulation results Figures 9-11 are derived from:
// every design on every workload under identical traces.
type Matrix struct {
	Models  []string
	Designs []core.Design
	Results map[string]map[core.Design]metrics.RunResult
}

// RunMatrix executes the Figure 9 design set on all five workloads. The
// model×design points are independent simulations under identical traces, so
// they fan out across opt.Workers through core.RunJobs, which generates each
// model's trace once; results are keyed by model and design, making every
// derived table byte-identical to a serial run.
func RunMatrix(opt Options) (*Matrix, error) {
	m := &Matrix{
		Models:  models.Names(),
		Designs: core.Figure9Designs(),
		Results: map[string]map[core.Design]metrics.RunResult{},
	}
	var jobs []core.Job
	for _, name := range m.Models {
		for _, d := range m.Designs {
			jobs = append(jobs, core.Job{Design: d, Model: name, RC: opt.RC})
		}
	}
	rs, err := core.RunJobs(opt.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		if m.Results[j.Model] == nil {
			m.Results[j.Model] = map[core.Design]metrics.RunResult{}
		}
		m.Results[j.Model][j.Design] = rs[i]
	}
	return m, nil
}

// Speedup returns design d's speedup over base on the given model.
func (m *Matrix) Speedup(model string, d, base core.Design) float64 {
	return m.Results[model][d].SpeedupOver(m.Results[model][base])
}

// GeomeanSpeedup returns the geometric-mean speedup of d over base across
// all models.
func (m *Matrix) GeomeanSpeedup(d, base core.Design) float64 {
	xs := make([]float64, 0, len(m.Models))
	for _, name := range m.Models {
		xs = append(xs, m.Speedup(name, d, base))
	}
	return metrics.Geomean(xs)
}

// Table3 prints the hardware configuration (Table III).
func Table3(cfg hw.Config) *metrics.Table {
	t := &metrics.Table{
		Title:   "Table III: hardware configuration",
		Columns: []string{"Parameter", "Value"},
	}
	t.AddRow("Tiles", fmt.Sprintf("%d x %d", cfg.TilesX, cfg.TilesY))
	t.AddRow("PEs per tile", fmt.Sprintf("%d x %d", cfg.PERows, cfg.PECols))
	t.AddRow("PE", fmt.Sprintf("FP16 MAC, %.0f GHz, %d B registers", cfg.ClockGHz, cfg.RegFileBytes))
	t.AddRow("Scratchpad", fmt.Sprintf("%d kB per tile, %d MB total",
		cfg.ScratchpadBytes>>10, cfg.TotalScratchpadBytes()>>20))
	t.AddRow("Off-chip memory", fmt.Sprintf("%d HBM2 stacks, %.0f GB/s total", cfg.HBMStacks, cfg.HBMTotalGBps))
	t.AddRow("NoC", fmt.Sprintf("2D torus, %.0f GB/s per tile", cfg.NoCPerTileGBps))
	t.AddRow("Peak throughput", fmt.Sprintf("%.0f TFLOPs", cfg.PeakTFLOPs()))
	return t
}

// Table4 reproduces the per-tile area and power breakdown (Table IV).
func Table4(cfg hw.Config) *metrics.Table {
	tb := power.Tile(cfg)
	t := &metrics.Table{
		Title:   "Table IV: area and power breakdown of an Adyna tile",
		Columns: []string{"Component", "Area (mm^2)", "Power (mW)"},
	}
	for _, c := range tb.Components {
		t.AddRow(c.Name, metrics.F(c.AreaMM2, 3), metrics.F(c.PowerMW, 3))
	}
	t.AddRow("Total", metrics.F(tb.TotalArea(), 3), metrics.F(tb.TotalPower(), 2))
	a, p := tb.DynNNOverheadShare()
	t.AddRow("DynNN-support share", metrics.F(a*100, 1)+"%", metrics.F(p*100, 2)+"%")
	t.AddRow("Chip power", "", metrics.F(power.ChipPowerW(cfg), 0)+" W")
	return t
}

// Figure9 builds the overall-performance comparison: per-model speedups over
// the M-tile baseline for every design, plus the headline aggregates.
func Figure9(m *Matrix) *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 9: speedup over M-tile (higher is better)",
		Columns: append([]string{"Model"}, designNames(m.Designs)...),
	}
	for _, name := range m.Models {
		row := []string{m.Results[name][core.DesignMTile].Model}
		for _, d := range m.Designs {
			row = append(row, metrics.F(m.Speedup(name, d, core.DesignMTile), 2))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, d := range m.Designs {
		row = append(row, metrics.F(m.GeomeanSpeedup(d, core.DesignMTile), 2))
	}
	t.AddRow(row...)
	return t
}

// Figure9Headlines returns the aggregates the paper quotes in its abstract
// and Section IX-B.
type Headlines struct {
	AdynaVsMTile      float64 // paper: 1.70x
	AdynaVsMTileMax   float64 // paper: 2.32x
	AdynaVsMTenant    float64 // paper: 1.57x
	AdynaVsMTenantMax float64 // paper: 2.01x
	StaticVsMTile     float64 // paper: 1.41x
	RuntimeGain       float64 // paper: 1.21x
	AdynaOfFullKernel float64 // paper: 0.87
	AdynaVsGPU        float64 // paper: 11.7x
	MTenantVsMTile    float64 // paper: 1.09x
}

// Figure9Headlines computes the headline aggregates from the matrix.
func Figure9Headlines(m *Matrix) Headlines {
	h := Headlines{
		AdynaVsMTile:      m.GeomeanSpeedup(core.DesignAdyna, core.DesignMTile),
		AdynaVsMTenant:    m.GeomeanSpeedup(core.DesignAdyna, core.DesignMTenant),
		StaticVsMTile:     m.GeomeanSpeedup(core.DesignAdynaStatic, core.DesignMTile),
		AdynaOfFullKernel: 1 / m.GeomeanSpeedup(core.DesignFullKernel, core.DesignAdyna),
		AdynaVsGPU:        m.GeomeanSpeedup(core.DesignAdyna, core.DesignGPU),
		MTenantVsMTile:    m.GeomeanSpeedup(core.DesignMTenant, core.DesignMTile),
	}
	h.RuntimeGain = h.AdynaVsMTile / h.StaticVsMTile
	for _, name := range m.Models {
		if s := m.Speedup(name, core.DesignAdyna, core.DesignMTile); s > h.AdynaVsMTileMax {
			h.AdynaVsMTileMax = s
		}
		if s := m.Speedup(name, core.DesignAdyna, core.DesignMTenant); s > h.AdynaVsMTenantMax {
			h.AdynaVsMTenantMax = s
		}
	}
	return h
}

// Figure10 builds the PE-utilization and memory-bandwidth-utilization
// comparison of the four accelerator designs.
func Figure10(m *Matrix) *metrics.Table {
	designs := []core.Design{core.DesignMTile, core.DesignMTenant, core.DesignAdynaStatic, core.DesignAdyna}
	cols := []string{"Model"}
	for _, d := range designs {
		cols = append(cols, "PE:"+string(d))
	}
	for _, d := range designs {
		cols = append(cols, "BW:"+string(d))
	}
	t := &metrics.Table{
		Title:   "Figure 10: PE utilization and memory bandwidth utilization",
		Columns: cols,
	}
	for _, name := range m.Models {
		row := []string{m.Results[name][core.DesignMTile].Model}
		for _, d := range designs {
			row = append(row, metrics.F(m.Results[name][d].PEUtil, 3))
		}
		for _, d := range designs {
			row = append(row, metrics.F(m.Results[name][d].HBMUtil, 3))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure11 builds the energy breakdown (HBM / SRAM / PE+NoC) of the four
// accelerator designs, normalized per batch.
func Figure11(m *Matrix) *metrics.Table {
	designs := []core.Design{core.DesignMTile, core.DesignMTenant, core.DesignAdynaStatic, core.DesignAdyna}
	t := &metrics.Table{
		Title:   "Figure 11: energy per batch (mJ), split HBM / SRAM / PE+NoC",
		Columns: []string{"Model", "Design", "HBM", "SRAM", "PE+NoC", "Total"},
	}
	for _, name := range m.Models {
		for _, d := range designs {
			r := m.Results[name][d]
			br := energy.Of(energy.Counters{
				MACs:        r.MACs,
				SRAMBytes:   r.SRAMBytes,
				HBMBytes:    r.HBMBytes,
				NoCByteHops: r.NoCByteHops,
			})
			n := float64(r.Batches)
			t.AddRow(r.Model, string(d),
				metrics.F(br.HBMmJ/n, 2), metrics.F(br.SRAMmJ/n, 2),
				metrics.F(br.PEmJ/n, 2), metrics.F(br.Total()/n, 2))
		}
	}
	return t
}

func designNames(ds []core.Design) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = string(d)
	}
	return out
}
