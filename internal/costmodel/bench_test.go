package costmodel

// Cost-model benchmarks tracked in BENCH_hotpath.json. Evaluate and Optimize
// are invoked for every (batch, entity) pair of a simulation, so their cost
// and allocation behaviour bound per-simulation throughput.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
)

// benchOp returns a representative mid-network convolution: 128 -> 256
// channels on a 14x14 feature map with a 3x3 filter, dynamic up to 128 units.
func benchOp() *graph.Op {
	c, m, h, w, r, s := 128, 256, 14, 14, 3, 3
	return &graph.Op{
		ID:              1,
		Name:            "conv_bench",
		Kind:            graph.KindConv2D,
		MACsPerUnit:     int64(c) * int64(m) * int64(h) * int64(w) * int64(r) * int64(s),
		InBytesPerUnit:  int64(c * h * w * 2),
		OutBytesPerUnit: int64(m * h * w * 2),
		WeightBytes:     int64(c * m * r * s * 2),
		Space:           [6]int{c, m, h, w, r, s},
		Dynamic:         true,
		MaxUnits:        128,
	}
}

// BenchmarkCostModelEvaluate measures one direct (uncached) Evaluate call
// with a realistic blocking over a spread of actual dyn values.
func BenchmarkCostModelEvaluate(b *testing.B) {
	b.ReportAllocs()
	cfg := hw.Default()
	op := benchOp()
	blk := Blocking{SplitN: 4, SplitM: 2, NBlk: 8, WeightResident: true}
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg, op, blk, 128, 1+i%128, 8, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModelOptimize measures the full blocking search that kernel
// generation runs per (shape class, dyn value, tiles) triple.
func BenchmarkCostModelOptimize(b *testing.B) {
	b.ReportAllocs()
	cfg := hw.Default()
	op := benchOp()
	for i := 0; i < b.N; i++ {
		if _, _, err := Optimize(cfg, op, 128, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModelEvaluateCached is the memoized counterpart of
// BenchmarkCostModelEvaluate: same key spread, served from the plan cache
// after the first 128 misses.
func BenchmarkCostModelEvaluateCached(b *testing.B) {
	b.ReportAllocs()
	c := NewCache(hw.Default())
	op := benchOp()
	blk := Blocking{SplitN: 4, SplitM: 2, NBlk: 8, WeightResident: true}
	for i := 0; i < b.N; i++ {
		if _, err := c.EvaluateDensity(op, blk, 128, 1+i%128, 8, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}
