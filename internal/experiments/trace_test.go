package experiments

import (
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/workload"
)

// countGen counts the batches its wrapped generator draws.
type countGen struct {
	workload.TraceGen
	n *atomic.Int64
}

func (c countGen) Next(src *workload.Source, batchUnits int) graph.BatchRouting {
	c.n.Add(1)
	return c.TraceGen.Next(src, batchUnits)
}

// countDensityGen is countGen for generators that also draw densities.
type countDensityGen struct {
	countGen
	dg workload.DensityGen
}

func (c countDensityGen) NextDensity(src *workload.Source) float64 { return c.dg.NextDensity(src) }

// countingOpts returns tiny options whose generators count every batch drawn.
func countingOpts(n *atomic.Int64) Options {
	opt := tiny()
	opt.RC.Batches = 6
	opt.RC.Warmup = 4
	opt.Workers = 4
	opt.RC.WrapGen = func(g workload.TraceGen) workload.TraceGen {
		c := countGen{g, n}
		if dg, ok := g.(workload.DensityGen); ok {
			return countDensityGen{c, dg}
		}
		return c
	}
	return opt
}

// The trace-once work gate: every sweep draws each trace exactly once,
// however many designs, policies, latencies or hardware variants run on it.
// The Figure 9 matrix, Figure 12 and the kernel-budget sweep draw one trace
// per model; the reconfiguration, hybrid and DSE sweeps one in total. The
// count is exact, unlike timings or allocations.
func TestRunMatrixGeneratesEachTraceOnce(t *testing.T) {
	var n atomic.Int64
	opt := countingOpts(&n)
	perTrace := int64(opt.RC.Warmup + opt.RC.Batches)
	perModel := int64(len(models.Names())) * perTrace
	for _, c := range []struct {
		name string
		want int64
		run  func() error
	}{
		{"RunMatrix", perModel, func() error { _, err := RunMatrix(opt); return err }},
		{"Figure12", perModel, func() error { _, _, err := Figure12(opt, []float64{0, 400}); return err }},
		{"KernelBudgetSweep", perModel, func() error { _, err := KernelBudgetSweep(opt, []int{1, 4}); return err }},
		{"ReconfigSweep", perTrace, func() error { _, err := ReconfigSweep(opt, []int{2, 4}); return err }},
		{"HybridDemo", perTrace, func() error { _, err := HybridDemo(opt); return err }},
		{"DSESweep", perTrace, func() error { _, err := DSESweep(opt, "skipnet"); return err }},
	} {
		n.Store(0)
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n.Load() != c.want {
			t.Errorf("%s drew %d batches, want %d (%d per trace)", c.name, n.Load(), c.want, perTrace)
		}
	}
}
