package costmodel

import (
	"repro/internal/graph"
	"repro/internal/hw"
)

// Roofline analysis: classify each compute operator of a graph as compute-
// or memory-bound on the configured hardware, at a concrete dyn value. The
// machine's ridge point sits at peak-FLOPs / HBM-bandwidth (about 160
// FLOP/byte for the Table III configuration) — operators below it cannot be
// saturated by compute no matter how well they are scheduled, which is what
// makes PABEE's weight-streaming segments memory-sensitive and DPSNet's
// convolutions compute-sensitive.

// OpAnalysis is one operator's roofline classification.
type OpAnalysis struct {
	// Op identifies the analyzed operator; Name is its graph name.
	Op   graph.OpID
	Name string
	// Units is the dyn value the analysis was taken at.
	Units int
	// FLOPs is the floating-point work at the given dyn value (2 per MAC).
	FLOPs int64
	// Bytes is the off-chip-relevant traffic: boundary activations plus the
	// weight footprint (the worst case: weights streamed once per batch).
	Bytes int64
	// Intensity is FLOPs/byte; ComputeBound compares it to the ridge point.
	Intensity    float64
	ComputeBound bool
}

// RidgePoint returns the configuration's FLOP/byte balance point.
func RidgePoint(cfg hw.Config) float64 {
	return cfg.PeakTFLOPs() * 1e12 / (cfg.HBMTotalGBps * 1e9)
}

// Roofline analyzes every compute operator of g at the given per-operator
// dyn values, indexed by OpID (pass nil to use the worst case).
func Roofline(cfg hw.Config, g *graph.Graph, units []int) []OpAnalysis {
	ridge := RidgePoint(cfg)
	var out []OpAnalysis
	for _, id := range g.ComputeOps() {
		op := g.Op(id)
		v := op.MaxUnits
		if units != nil {
			v = units[id]
		}
		a := OpAnalysis{
			Op:    id,
			Name:  op.Name,
			Units: v,
			FLOPs: 2 * op.TotalMACs(v),
			Bytes: op.TotalInBytes(v) + op.TotalOutBytes(v) + op.WeightBytes,
		}
		if a.Bytes > 0 {
			a.Intensity = float64(a.FLOPs) / float64(a.Bytes)
		}
		a.ComputeBound = a.Intensity >= ridge
		out = append(out, a)
	}
	return out
}

// RooflineSummary aggregates an analysis: the share of total FLOPs sitting
// in compute-bound operators.
func RooflineSummary(as []OpAnalysis) (computeBoundFLOPShare float64, totalFLOPs int64) {
	var cb int64
	for _, a := range as {
		totalFLOPs += a.FLOPs
		if a.ComputeBound {
			cb += a.FLOPs
		}
	}
	if totalFLOPs == 0 {
		return 0, 0
	}
	return float64(cb) / float64(totalFLOPs), totalFLOPs
}
