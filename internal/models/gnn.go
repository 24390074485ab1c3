package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/workload"
)

const (
	gnnLayers  = 3
	gnnNodes   = 256
	gnnSampled = 64
	gnnHidden  = 256
)

// GCN builds a graph-convolution network in the GraphSAGE style: each layer
// aggregates neighbor features through the (sparse) adjacency matrix and then
// applies a dense feature transform. One unit is one subgraph of gnnNodes
// nodes. The model exercises both dynamism axes at once:
//
//   - Data-dependent sparsity: the aggregation SpMM's work tracks the
//     adjacency density of the batch's subgraphs, which varies per request
//     and drifts over time (social graphs densify, traffic graphs thin out
//     overnight). The aggregation operators are marked density-aware, so
//     their cost scales with the batch's density dyn-value.
//   - Dynamic routing: a per-layer sampler gate chooses between the full
//     neighborhood hop and a cheaper sampled hop (neighbor sampling), with a
//     drifting preference.
//
// GCN joins models.ByName but not All()/Names(): the paper's five evaluated
// workloads (Table I) stay the canonical figure set, and every existing
// figure remains byte-identical.
func GCN(batchSamples int) (*Workload, error) { return gcnModel.build(batchSamples) }

func gcnGraph(batchSamples int) (*graph.Graph, error) {
	actBytes := int64(gnnNodes) * int64(gnnHidden) * 2

	b := graph.NewBuilder("gcn", 1)
	x := b.Input("node-feats", actBytes, batchSamples)
	x = b.SeqMatMul("embed", x, gnnNodes, gnnHidden, gnnHidden)
	for l := 0; l < gnnLayers; l++ {
		name := func(part string) string { return fmt.Sprintf("l%d_%s", l, part) }
		gate := b.Gate(name("sampler"), x, gnnHidden, 2)
		br := b.Switch(name("sw"), x, gate, 2)
		// Branch 0: full-neighborhood hop. The aggregation is an SpMM over
		// the whole adjacency — density-aware.
		full := b.SeqMatMul(name("agg_full"), br[0], gnnNodes, gnnHidden, gnnHidden)
		b.Sparse(full)
		full = b.SeqMatMul(name("upd_full"), full, gnnNodes, gnnHidden, gnnHidden)
		// Branch 1: sampled hop — the SpMM only visits a neighbor sample.
		samp := b.SeqMatMul(name("agg_samp"), br[1], gnnSampled, gnnHidden, gnnHidden)
		b.Sparse(samp)
		samp = b.SeqMatMul(name("upd_samp"), samp, gnnSampled, gnnHidden, gnnHidden)
		m := b.Merge(name("combine"), br, full, samp)
		x = b.LayerNorm(name("ln"), m, actBytes)
	}
	out := b.MatMul("readout", x, gnnHidden, 32)
	b.Output("logits", out)

	return b.Build()
}

func gcnOn(g *graph.Graph) *Workload {
	gen := &gnnGen{
		// Adjacency density drifts over a wide range: dense enough at the top
		// that a plan sized for sparse batches misses deadlines, sparse
		// enough at the bottom that a dense plan wastes most of its tiles.
		dens: slowDrift(0.3, 0.05, 0.95, 0.02),
	}
	for range g.Switches() {
		// Sampled-hop preference drifts per layer.
		gen.sampleP = append(gen.sampleP, slowDrift(0.35, 0.02, 0.95, 0.03))
	}
	return &Workload{
		Name:         "GCN",
		Category:     "data-dependent sparsity",
		Graph:        g,
		DefaultBatch: batchOf(g),
		Gen:          gen,
		Exclusive:    true, // each subgraph takes exactly one hop variant
	}
}

// gnnGen routes each subgraph to the full or sampled hop per layer and draws
// the batch's adjacency density from a drifting walk. It implements
// workload.DensityGen, so Trace and the serving layers stamp its density onto
// every batch.
type gnnGen struct {
	sampleP []*workload.Drift
	dens    *workload.Drift
}

func (g *gnnGen) Next(src *workload.Source, units int) graph.BatchRouting {
	rt := make(graph.BatchRouting, len(g.sampleP))
	for li := range rt {
		p := g.sampleP[li].Step(src)
		branches := make([][]int32, 2)
		for i := range int32(units) {
			if src.Bernoulli(p) {
				branches[1] = append(branches[1], i) // sampled hop
			} else {
				branches[0] = append(branches[0], i) // full hop
			}
		}
		rt[li] = graph.Routing{Branch: branches}
	}
	return rt
}

// NextDensity draws the batch's adjacency density (workload.DensityGen).
func (g *gnnGen) NextDensity(src *workload.Source) float64 {
	return g.dens.Step(src)
}
