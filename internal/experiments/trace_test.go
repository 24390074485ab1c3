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

// The trace-once work gate: the Figure 9 matrix draws each model's warmup
// and measured batches exactly once, however many designs run on them, and
// the hardware DSE draws its model's trace once for every variant. The
// count is exact, unlike timings or allocations.
func TestRunMatrixGeneratesEachTraceOnce(t *testing.T) {
	var n atomic.Int64
	opt := countingOpts(&n)
	perTrace := int64(opt.RC.Warmup + opt.RC.Batches)

	if _, err := RunMatrix(opt); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(models.Names())) * perTrace; n.Load() != want {
		t.Fatalf("RunMatrix drew %d batches, want %d (one trace per model)", n.Load(), want)
	}

	n.Store(0)
	if _, err := DSESweep(opt, "skipnet"); err != nil {
		t.Fatal(err)
	}
	if n.Load() != perTrace {
		t.Fatalf("DSESweep drew %d batches, want %d (one trace for every variant)", n.Load(), perTrace)
	}
}

// lazyTraces releases a model's trace once its last job has taken it, and
// every job of the model gets the same trace.
func TestLazyTracesReleaseAfterLastTake(t *testing.T) {
	rc := tiny().RC
	lt := newLazyTraces(rc, []string{"skipnet"}, 3)
	first, err := lt.take("skipnet")
	if err != nil {
		t.Fatal(err)
	}
	if second, _ := lt.take("skipnet"); second != first {
		t.Fatal("jobs of one model got different traces")
	}
	if lt.slots["skipnet"].tr == nil {
		t.Fatal("trace released before the last job took it")
	}
	if third, _ := lt.take("skipnet"); third != first {
		t.Fatal("last job got a different trace")
	}
	if lt.slots["skipnet"].tr != nil {
		t.Fatal("trace still held after the last job took it")
	}
}
