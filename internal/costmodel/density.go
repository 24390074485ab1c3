package costmodel

import (
	"math"

	"repro/internal/graph"
	"repro/internal/hw"
)

// Data-dependent sparsity. A batch can carry a runtime *density* dyn-value in
// (0,1]: the fraction of its nominal work that is actually nonzero (for a
// GNN-style aggregation, the adjacency density of the batched graphs).
// Density-aware operators (graph.Op.DensityAware) skip the zero share at
// runtime the same way kernel-fitting skips the compiled-vs-actual dyn gap —
// and with the same imperfection: the kernel's blocking, buffer tiling and
// weight-reuse schedule were generated for the dense size, so only part of
// the skipped work converts into saved cycles (partial tiles, irregular
// access, broken reuse). Weights stay dense and outputs stay dense (every
// unit produces its full output row even when its inputs are sparse), so the
// operator's byte traffic has a floor that density cannot shrink: as density
// drops, the operator slides from compute- toward memory-bound on the
// roofline and latency falls *sublinearly* in density.
//
// All density evaluation happens at a quantized representative density
// (QuantizeDensity), which is what keeps Cache keys sound: two densities in
// the same bucket are the same evaluation by construction.

// DensityBuckets is the resolution of the density quantization lattice used
// by the cost model, the plan-cache keyer and the AOT precompute: densities
// are snapped up to the nearest 1/DensityBuckets before any evaluation.
const DensityBuckets = 64

// DensityBucket maps a density to its lattice bucket in [1, DensityBuckets].
// Unset (<= 0) and dense (>= 1) densities map to the top bucket, so "no
// density" and "density 1" are indistinguishable everywhere by design.
func DensityBucket(d float64) uint8 {
	if d <= 0 || d >= 1 {
		return DensityBuckets
	}
	b := int(math.Ceil(d * DensityBuckets))
	if b < 1 {
		b = 1
	}
	if b > DensityBuckets {
		b = DensityBuckets
	}
	return uint8(b)
}

// QuantizeDensity snaps a density up to its bucket's representative value:
// the largest density in the bucket, so quantization never underestimates
// work. Unset and dense inputs return exactly 1.
func QuantizeDensity(d float64) float64 {
	b := DensityBucket(d)
	if b == DensityBuckets {
		return 1
	}
	return float64(b) / DensityBuckets
}

// EvaluateDensity is Evaluate with a runtime density dyn-value. For
// non-density-aware operators, unset densities and density 1 it is exactly
// Evaluate — byte-identical results, so the dense path never pays for the
// axis. For a density-aware operator at quantized density d it costs the
// kernel as if only ceil(d*actualUnits) units carried work: the compiled
// kernel size, the fitting-gap penalty and the static-baseline rule
// (fitting=false pays the full compiled size — density-skipping is a runtime
// fitting capability) all apply unchanged, which is what makes the saved
// cycles a sublinear fraction of the skipped work. Output activation bytes
// are restored to the dense figure: sparse inputs still produce dense
// outputs.
func EvaluateDensity(cfg hw.Config, op *graph.Op, blk Blocking, compiledUnits, actualUnits, tiles int, fitting bool, density float64) (Eval, error) {
	d := QuantizeDensity(density)
	if !op.DensityAware || d >= 1 {
		return Evaluate(cfg, op, blk, compiledUnits, actualUnits, tiles, fitting)
	}
	effUnits := int(math.Ceil(d * float64(actualUnits)))
	if effUnits < 1 && actualUnits > 0 {
		effUnits = 1
	}
	ev, err := Evaluate(cfg, op, blk, compiledUnits, effUnits, tiles, fitting)
	if err != nil || !fitting {
		return ev, err
	}
	denseOut := op.OutBytesPerUnit * int64(actualUnits)
	ev.SRAMBytes += denseOut - ev.OutBytes
	ev.OutBytes = denseOut
	return ev, nil
}

// EvaluateDensity is the memoized form of the package-level EvaluateDensity.
// The key extends the dense evalKey with the density *bucket*, and the
// evaluation itself runs at the bucket's representative density, so a cached
// result is exactly the result an uncached call would produce for any density
// in the bucket. Density 1 — the dense cost, what the package-level Evaluate
// returns — and every operator that is not density-aware key the top bucket,
// DensityBuckets.
func (c *Cache) EvaluateDensity(op *graph.Op, blk Blocking, compiledUnits, actualUnits, tiles int, fitting bool, density float64) (Eval, error) {
	db := DensityBucket(density)
	if !op.DensityAware {
		db = DensityBuckets
	}
	k, ok := newEvalKey(op.ID, blk, compiledUnits, actualUnits, tiles, fitting, db)
	if !ok {
		c.misses++
		return EvaluateDensity(c.cfg, op, blk, compiledUnits, actualUnits, tiles, fitting, density)
	}
	if ev, hit := c.eval[k]; hit {
		c.hits++
		return ev, nil
	}
	if err, hit := c.errs[k]; hit {
		c.hits++
		return Eval{}, err
	}
	c.misses++
	ev, err := EvaluateDensity(c.cfg, op, blk, compiledUnits, actualUnits, tiles, fitting, density)
	if err != nil {
		if c.errs == nil {
			c.errs = map[evalKey]error{}
		}
		c.errs[k] = err
		return ev, err
	}
	c.eval[k] = ev
	return ev, nil
}

// DensityRoofline analyzes every density-aware compute operator of g at the
// given density: FLOPs and input bytes scale with density while output and
// weight bytes stay dense, so operational intensity I(d) = d*F / (d*In + Out
// + W) decreases with density and each operator's classification can flip
// from compute- to memory-bound as the batch gets sparser. Operators that are
// not density-aware are analyzed at density 1, exactly as Roofline does.
func DensityRoofline(cfg hw.Config, g *graph.Graph, units map[graph.OpID]int, density float64) []OpAnalysis {
	d := QuantizeDensity(density)
	ridge := RidgePoint(cfg)
	out := Roofline(cfg, g, units)
	if d >= 1 {
		return out
	}
	for i := range out {
		op := g.Op(out[i].Op)
		if !op.DensityAware {
			continue
		}
		v := out[i].Units
		out[i].FLOPs = int64(math.Ceil(d * float64(2*op.TotalMACs(v))))
		out[i].Bytes = int64(math.Ceil(d*float64(op.TotalInBytes(v)))) +
			op.TotalOutBytes(v) + op.WeightBytes
		out[i].Intensity = 0
		if out[i].Bytes > 0 {
			out[i].Intensity = float64(out[i].FLOPs) / float64(out[i].Bytes)
		}
		out[i].ComputeBound = out[i].Intensity >= ridge
	}
	return out
}
