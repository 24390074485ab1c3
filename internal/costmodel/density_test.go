package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
)

func TestDensityBucket(t *testing.T) {
	cases := []struct {
		d    float64
		want uint8
	}{
		{0, DensityBuckets},    // unset → dense
		{-0.5, DensityBuckets}, // invalid → dense
		{1, DensityBuckets},
		{1.5, DensityBuckets},
		{1.0 / DensityBuckets, 1},
		{0.0001, 1}, // rounds up, never to zero
		{0.5, DensityBuckets / 2},
		{0.51, DensityBuckets/2 + 1}, // quantized UP
	}
	for _, c := range cases {
		if got := DensityBucket(c.d); got != c.want {
			t.Errorf("DensityBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Quantization never decreases the density: the cost model must not
	// under-charge a sparse batch relative to its true density.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		d := r.Float64()
		if d == 0 {
			continue
		}
		q := QuantizeDensity(d)
		if q < d {
			t.Fatalf("QuantizeDensity(%v) = %v rounded down", d, q)
		}
		if q-d >= 1.0/DensityBuckets {
			t.Fatalf("QuantizeDensity(%v) = %v, off by a whole bucket", d, q)
		}
	}
}

// TestEvaluateDensityDenseIdentity pins the byte-identity contract of the
// sparsity axis: density 1 (or unset/invalid), and any density on an operator
// not marked density-aware, must evaluate exactly like the plain Evaluate —
// the existing models and goldens ride on this.
func TestEvaluateDensityDenseIdentity(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	blk, _, err := Optimize(cfg, op, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fitting := range []bool{true, false} {
		want, werr := Evaluate(cfg, op, blk, 128, 64, 8, fitting)
		for _, d := range []float64{1, 0, -1, 2} {
			got, gerr := EvaluateDensity(cfg, op, blk, 128, 64, 8, fitting, d)
			if got != want || errString(gerr) != errString(werr) {
				t.Fatalf("fitting=%v density=%v: EvaluateDensity diverged from Evaluate", fitting, d)
			}
		}
		// Not density-aware: every density is the dense cost.
		got, gerr := EvaluateDensity(cfg, op, blk, 128, 64, 8, fitting, 0.25)
		if got != want || errString(gerr) != errString(werr) {
			t.Fatalf("fitting=%v: non-density-aware op charged for sparsity", fitting)
		}
	}
}

// TestEvaluateDensitySublinear checks the roofline density model's shape on a
// density-aware operator under runtime fitting: sparser batches cost fewer
// compute cycles, but the savings are sublinear in density (the compiled
// kernel's fitting gap is paid regardless), and the output stays dense
// (sparse inputs produce dense outputs).
func TestEvaluateDensitySublinear(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	op.DensityAware = true
	blk, _, err := Optimize(cfg, op, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Evaluate(cfg, op, blk, 128, 128, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	prev := dense.Cycles + 1
	for _, d := range []float64{1, 0.75, 0.5, 0.25} {
		ev, err := EvaluateDensity(cfg, op, blk, 128, 128, 8, true, d)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Cycles > prev {
			t.Fatalf("density %v: cycles %d not monotone (prev %d)", d, ev.Cycles, prev)
		}
		prev = ev.Cycles
		if d < 1 {
			if ev.Cycles >= dense.Cycles {
				t.Fatalf("density %v: no compute saving (%d >= %d)", d, ev.Cycles, dense.Cycles)
			}
			ratio := float64(ev.Cycles) / float64(dense.Cycles)
			if ratio <= d {
				t.Fatalf("density %v: saving %v is superlinear; the fitting gap should keep it sublinear", d, ratio)
			}
		}
		if ev.OutBytes != dense.OutBytes {
			t.Fatalf("density %v: output bytes %d, want dense %d (sparse in, dense out)", d, ev.OutBytes, dense.OutBytes)
		}
	}
	// Without runtime fitting (the static baseline) density cannot be
	// exploited: the worst-case kernel runs at full dense cost.
	static, err := Evaluate(cfg, op, blk, 128, 128, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateDensity(cfg, op, blk, 128, 128, 8, false, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != static.Cycles {
		t.Fatalf("static baseline exploited density: %d != %d", got.Cycles, static.Cycles)
	}
}

// TestCacheDensityBucketSoundness is the density-bucket soundness property
// that lets every caller pass a raw density: over randomized operators and
// densities, EvaluateDensity at any density equals EvaluateDensity at that
// density's bucket representative (QuantizeDensity), and an operator that is
// not density-aware costs the same at every density.
func TestCacheDensityBucketSoundness(t *testing.T) {
	cfg := hw.Default()
	r := rand.New(rand.NewSource(23))
	checked := 0
	for i := 0; i < 120; i++ {
		op := randOp(r, i)
		op.DensityAware = r.Intn(2) == 0
		tiles := 1 + r.Intn(16)
		compiled := 1 + r.Intn(op.MaxUnits)
		blk, _, oerr := Optimize(cfg, op, compiled, tiles)
		if oerr != nil {
			continue
		}
		for j := 0; j < 6; j++ {
			actual := 1 + r.Intn(compiled)
			fitting := r.Intn(2) == 0
			density := r.Float64()*1.2 - 0.1 // includes invalid <0 and >1
			ev, err := EvaluateDensity(cfg, op, blk, compiled, actual, tiles, fitting, density)
			qev, qerr := EvaluateDensity(cfg, op, blk, compiled, actual, tiles, fitting, QuantizeDensity(density))
			if ev != qev || errString(err) != errString(qerr) {
				t.Fatalf("op %d density=%v fitting=%v: (%+v, %v) differs from its bucket's (%+v, %v)",
					i, density, fitting, ev, err, qev, qerr)
			}
			if !op.DensityAware {
				dev, derr := EvaluateDensity(cfg, op, blk, compiled, actual, tiles, fitting, 1)
				if ev != dev || errString(err) != errString(derr) {
					t.Fatalf("op %d density=%v: a non-density-aware op was charged for sparsity", i, density)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no operator compiled")
	}
}

// TestDensityRoofline checks the roofline rescaling: density-aware operators
// lose FLOPs faster than bytes (weights and outputs stay dense), so their
// arithmetic intensity drops and compute-bound operators cross toward the
// memory-bound side as density falls.
func TestDensityRoofline(t *testing.T) {
	cfg := hw.Default()
	b := graph.NewBuilder("t", 1)
	in := b.Input("in", 256*256*2, 64)
	agg := b.SeqMatMul("agg", in, 256, 256, 256)
	b.Sparse(agg)
	upd := b.SeqMatMul("upd", agg, 256, 256, 256)
	b.Output("out", upd)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dense := Roofline(cfg, g, nil)
	at := func(as []OpAnalysis, name string) OpAnalysis {
		for _, a := range as {
			if a.Name == name {
				return a
			}
		}
		t.Fatalf("op %s not in analysis", name)
		return OpAnalysis{}
	}
	for _, d := range []float64{0.5, 0.1} {
		sparse := DensityRoofline(cfg, g, nil, d)
		da, sa := at(dense, "agg"), at(sparse, "agg")
		if sa.FLOPs >= da.FLOPs {
			t.Fatalf("density %v: agg FLOPs did not shrink (%d >= %d)", d, sa.FLOPs, da.FLOPs)
		}
		if sa.Intensity >= da.Intensity {
			t.Fatalf("density %v: agg intensity did not drop (%v >= %v)", d, sa.Intensity, da.Intensity)
		}
		// The dense transform is untouched.
		du, su := at(dense, "upd"), at(sparse, "upd")
		if du.FLOPs != su.FLOPs || math.Abs(du.Intensity-su.Intensity) > 1e-12 {
			t.Fatalf("density %v: non-density-aware op rescaled", d)
		}
	}
	// Density 1 is exactly the dense analysis.
	same := DensityRoofline(cfg, g, nil, 1)
	for i := range dense {
		if same[i] != dense[i] {
			t.Fatalf("density 1 analysis diverged at %s", dense[i].Name)
		}
	}
}
