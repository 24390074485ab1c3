package costmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hw"
)

// convOp builds a representative dynamic conv operator for cost tests.
func convOp(t testing.TB, maxUnits int) *graph.Op {
	b := graph.NewBuilder("t", 1)
	in := b.Input("in", 64*14*14*2, maxUnits)
	gate := b.Gate("gate", in, 64, 2)
	br := b.Switch("sw", in, gate, 2)
	conv := b.Conv2D("conv", br[0], graph.ConvSpec{
		InC: 64, OutC: 128, H: 14, W: 14, R: 3, S: 3, Stride: 1, Pad: 1,
	})
	other := b.Elementwise("id", 64*14*14*2, br[1])
	m := b.Merge("m", br, conv, other)
	b.Output("out", m)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range g.Ops {
		if op.Name == "conv" {
			return op
		}
	}
	t.Fatal("conv not found")
	return nil
}

func eltOp(t testing.TB, maxUnits int) *graph.Op {
	b := graph.NewBuilder("t", 1)
	in := b.Input("in", 4096, maxUnits)
	e := b.Elementwise("relu", 4096, in)
	b.Output("out", e)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g.Op(g.ComputeOps()[0])
}

func TestEvaluateScalesWithUnits(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	blk, _, err := Optimize(cfg, op, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Evaluate(cfg, op, blk, 128, 128, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Evaluate(cfg, op, blk, 128, 64, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if half.Cycles >= full.Cycles {
		t.Fatalf("half batch not cheaper: %d vs %d", half.Cycles, full.Cycles)
	}
	if half.InBytes*2 != full.InBytes {
		t.Fatalf("activation traffic must scale linearly: %d vs %d", half.InBytes, full.InBytes)
	}
	// With half the units fitted on a full-size kernel, cycles interpolate
	// between exact (0.5) and padded (1.0) by FittingGapShare.
	ratio := float64(half.Cycles) / float64(full.Cycles)
	want := 0.5 + FittingGapShare/2
	if ratio < want-0.08 || ratio > want+0.08 {
		t.Fatalf("half/full cycle ratio %v, want ~%v", ratio, want)
	}
}

func TestNoFittingPaysWorstCase(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	blk, _, err := Optimize(cfg, op, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := Evaluate(cfg, op, blk, 128, 16, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	unfitted, err := Evaluate(cfg, op, blk, 128, 16, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Evaluate(cfg, op, blk, 128, 128, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if unfitted.Cycles != full.Cycles || unfitted.MACs != full.MACs {
		t.Fatal("without fitting the kernel must pay the full compiled cost")
	}
	if fitted.Cycles >= unfitted.Cycles {
		t.Fatal("runtime kernel-fitting must be cheaper than padded execution")
	}
	if fitted.InBytes >= unfitted.InBytes {
		t.Fatal("fitting must also reduce activation traffic")
	}
}

func TestKernelGapCostsCapacity(t *testing.T) {
	// Running v=9 on a kernel compiled for 128 must cost more than on a
	// kernel compiled for 16: that gap is what multi-kernel selection buys.
	cfg := hw.Default()
	op := convOp(t, 128)
	big, _, err := Optimize(cfg, op, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := Optimize(cfg, op, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	onBig, err := Evaluate(cfg, op, big, 128, 9, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	onSmall, err := Evaluate(cfg, op, small, 16, 9, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if onSmall.Cycles >= onBig.Cycles {
		t.Fatalf("matched kernel (%d cyc) should beat oversized kernel (%d cyc)",
			onSmall.Cycles, onBig.Cycles)
	}
}

func TestZeroUnitsIsFree(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	blk, _, err := Optimize(cfg, op, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(cfg, op, blk, 128, 0, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cycles != 0 || ev.MACs != 0 || ev.InBytes != 0 {
		t.Fatalf("empty invocation must be free: %+v", ev)
	}
}

func TestActualExceedsCompiledRejected(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	blk, _, _ := Optimize(cfg, op, 64, 4)
	if _, err := Evaluate(cfg, op, blk, 64, 65, 4, true); err == nil {
		t.Fatal("expected error: dispatcher never picks a kernel smaller than actual")
	}
}

func TestMoreTilesFaster(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	var prev int64 = 1 << 62
	for _, tiles := range []int{1, 2, 4, 8, 16} {
		_, ev, err := Optimize(cfg, op, 128, tiles)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Cycles > prev {
			t.Fatalf("%d tiles slower than fewer tiles: %d > %d", tiles, ev.Cycles, prev)
		}
		prev = ev.Cycles
	}
}

func TestVectorOpModel(t *testing.T) {
	cfg := hw.Default()
	op := eltOp(t, 128)
	blk := Blocking{SplitN: 1, SplitM: 1, NBlk: 1, WeightResident: true}
	ev, err := Evaluate(cfg, op, blk, 128, 128, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// 128 units * 2048 elems / 1024 lanes = 256 cycles + startup.
	want := int64(128*2048/1024) + startupCycles
	if ev.Cycles != want {
		t.Fatalf("vector cycles = %d, want %d", ev.Cycles, want)
	}
	if ev.HBMWeightBytes != 0 {
		t.Fatal("elementwise has no weights to stream")
	}
}

func TestBlockingValidate(t *testing.T) {
	cases := []Blocking{
		{SplitN: 0, SplitM: 1, NBlk: 1},
		{SplitN: 1, SplitM: 0, NBlk: 1},
		{SplitN: 4, SplitM: 4, NBlk: 1}, // 16 > 8 tiles
		{SplitN: 1, SplitM: 1, NBlk: 0},
	}
	for _, blk := range cases {
		if err := blk.Validate(8); err == nil {
			t.Errorf("blocking %+v accepted", blk)
		}
	}
	if err := (Blocking{SplitN: 2, SplitM: 4, NBlk: 2}).Validate(8); err != nil {
		t.Errorf("valid blocking rejected: %v", err)
	}
}

func TestOptimizeErrors(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	if _, _, err := Optimize(cfg, op, 128, 0); err == nil {
		t.Fatal("zero tiles accepted")
	}
	if _, _, err := Optimize(cfg, op, 0, 4); err == nil {
		t.Fatal("zero units accepted")
	}
}

func TestDynBlockClamps(t *testing.T) {
	if dynBlock(2, 1) != 1 {
		t.Fatal("tiny kernels must block at 1")
	}
	if dynBlock(1024, 1) != 16 {
		t.Fatal("huge kernels clamp at 16")
	}
	if got := dynBlock(64, 2); got != 8 {
		t.Fatalf("dynBlock(64,2) = %d, want 8", got)
	}
}

func TestWeightResidencyDrivesHBMTraffic(t *testing.T) {
	// A giant matmul whose weights cannot fit on-chip must stream them.
	b := graph.NewBuilder("t", 1)
	in := b.Input("in", 8192*2, 8)
	fc := b.MatMul("huge", in, 8192, 8192) // 128 MB of weights
	b.Output("out", fc)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	op := g.Op(g.ComputeOps()[0])
	cfg := hw.Default()
	blk, ev, err := Optimize(cfg, op, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blk.WeightResident {
		t.Fatal("128 MB of weights cannot be resident in 512 kB")
	}
	if ev.HBMWeightBytes != op.WeightBytes {
		t.Fatalf("streaming weights = %d, want %d", ev.HBMWeightBytes, op.WeightBytes)
	}
}

// Property: latency and MACs are monotone non-decreasing in the actual dyn
// value for a fixed kernel.
func TestQuickMonotoneInUnits(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 256)
	blk, _, err := Optimize(cfg, op, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		ex, err1 := Evaluate(cfg, op, blk, 256, x, 8, true)
		ey, err2 := Evaluate(cfg, op, blk, 256, y, 8, true)
		if err1 != nil || err2 != nil {
			return false
		}
		return ex.Cycles <= ey.Cycles && ex.MACs <= ey.MACs && ex.InBytes <= ey.InBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: executed MACs never undercount the useful work
// (alignment only ever adds).
func TestQuickMACsCoverUsefulWork(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 256)
	f := func(va, ta uint8) bool {
		v := int(va)%256 + 1
		tiles := int(ta)%16 + 1
		blk, _, err := Optimize(cfg, op, 256, tiles)
		if err != nil {
			return false
		}
		ev, err := Evaluate(cfg, op, blk, 256, v, tiles, true)
		if err != nil {
			return false
		}
		return ev.MACs >= op.MACsPerUnit*int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimize(b *testing.B) {
	cfg := hw.Default()
	op := convOp(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Optimize(cfg, op, 128, 12); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRidgePoint(t *testing.T) {
	// Table III: 295 TFLOPs / 1842 GB/s ~= 160 FLOP/byte.
	r := RidgePoint(hw.Default())
	if r < 155 || r > 165 {
		t.Fatalf("ridge point = %v, want ~160", r)
	}
}

func TestRooflineClassification(t *testing.T) {
	cfg := hw.Default()
	b := graph.NewBuilder("roof", 1)
	in := b.Input("in", 768*2, 128)
	// A fat conv: enormous reuse, clearly compute-bound.
	conv := b.Conv2D("conv", in, graph.ConvSpec{
		InC: 128, OutC: 128, H: 28, W: 28, R: 3, S: 3, Stride: 1, Pad: 1,
	})
	// A skinny FC: one pass over big weights, clearly memory-bound.
	pool := b.Pool("pool", conv, int64(128*28*28*2), 768*2)
	fc := b.MatMul("fc", pool, 768, 30000)
	b.Output("o", fc)
	g := b.MustBuild()
	as := Roofline(cfg, g, nil)
	byName := map[string]OpAnalysis{}
	for _, a := range as {
		byName[a.Name] = a
	}
	if !byName["conv"].ComputeBound {
		t.Fatalf("conv should be compute-bound: %+v", byName["conv"])
	}
	if byName["fc"].ComputeBound {
		t.Fatalf("fat-vocabulary FC should be memory-bound: %+v", byName["fc"])
	}
	share, total := RooflineSummary(as)
	if total <= 0 || share <= 0 || share > 1 {
		t.Fatalf("summary share=%v total=%v", share, total)
	}
}

func TestRooflineAtActualUnits(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	g := &graph.Graph{} // not used: analyze via a real graph below
	_ = g
	b := graph.NewBuilder("r2", 1)
	in := b.Input("in", 64*14*14*2, 128)
	conv := b.Conv2D("conv", in, graph.ConvSpec{
		InC: 64, OutC: 128, H: 14, W: 14, R: 3, S: 3, Stride: 1, Pad: 1,
	})
	b.Output("o", conv)
	gg := b.MustBuild()
	id := gg.ComputeOps()[0]
	full := Roofline(cfg, gg, nil)[0]
	units := make([]int, len(gg.Ops))
	units[id] = 4
	small := Roofline(cfg, gg, units)[0]
	if small.FLOPs >= full.FLOPs {
		t.Fatal("fewer units must mean fewer FLOPs")
	}
	// Weights do not shrink with units, so intensity falls at small dyn
	// values — small invocations drift memory-bound, which is exactly why
	// worst-case padding inflates M-tile's apparent efficiency.
	if small.Intensity >= full.Intensity {
		t.Fatalf("intensity should fall with units: %v vs %v", small.Intensity, full.Intensity)
	}
	_ = op
}
