package models

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/workload"
)

const (
	moeLayers  = 4
	moeExperts = 8
	moeTopK    = 2
)

// TutelMoE builds a mixture-of-experts transformer in the style of Tutel's
// example model [28], [41]: a compact ViT whose FFN blocks are replaced by
// top-2-gated expert banks, sized so the whole model pipelines on a single
// chip (the paper's setup). Each MoE block is a switch over the experts
// followed by an accumulating merge (Figure 5, MoE row).
//
// Expert popularity is skewed and drifts over time (expert load imbalance is
// the well-documented MoE pathology the paper cites via FasterMoE).
func TutelMoE(batchSamples int) (*Workload, error) { return moeModel.build(batchSamples) }

func moeGraph(batchSamples int) (*graph.Graph, error) {
	const (
		seq    = 64
		hidden = 512
		expFFN = 1024
	)
	actBytes := int64(seq) * int64(hidden) * 2

	b := graph.NewBuilder("tutel-moe", 1)
	x := b.Input("tokens", actBytes, batchSamples)
	x = b.SeqMatMul("embed", x, seq, hidden, hidden)
	for l := 0; l < moeLayers; l++ {
		name := func(part string) string { return fmt.Sprintf("l%d_%s", l, part) }
		qkv := b.SeqMatMul(name("qkv"), x, seq, hidden, 3*hidden)
		attn := b.Attention(name("attn"), qkv, seq, hidden)
		proj := b.SeqMatMul(name("proj"), attn, seq, hidden, hidden)
		ln := b.LayerNorm(name("ln1"), proj, actBytes)
		gate := b.Gate(name("router"), ln, hidden, moeExperts)
		br := b.Switch(name("sw"), ln, gate, moeExperts)
		outs := make([]graph.Port, moeExperts)
		for e := 0; e < moeExperts; e++ {
			up := b.SeqMatMul(name(fmt.Sprintf("exp%d_up", e)), br[e], seq, hidden, expFFN)
			outs[e] = b.SeqMatMul(name(fmt.Sprintf("exp%d_down", e)), up, seq, expFFN, hidden)
		}
		m := b.Merge(name("combine"), br, outs...)
		x = b.LayerNorm(name("ln2"), m, actBytes)
	}
	cls := b.MatMul("head", x, hidden, 10)
	b.Output("logits", cls)

	return b.Build()
}

func moeOn(g *graph.Graph) *Workload {
	gen := &moeGen{}
	for range g.Switches() {
		logits := make([]*workload.Drift, moeExperts)
		for e := range logits {
			// Skewed initial popularity, drifting per expert.
			logits[e] = slowDrift(-0.45*float64(e), -4, 2.5, 0.05)
		}
		gen.logits = append(gen.logits, logits)
	}
	return &Workload{
		Name:            "Tutel-MoE",
		Category:        "dynamic routing",
		Graph:           g,
		DefaultBatch:    batchOf(g),
		Gen:             gen,
		Exclusive:       false, // top-2: every sample activates two experts
		GPUFusedRouting: true,  // Tutel's fused expert kernels
	}
}

type moeGen struct {
	logits [][]*workload.Drift
	// weights, picks and owners are Next's scratch (one layer's gate
	// weights; its samples' top-k experts and, beside each, the sample that
	// drew it), reused so Next allocates only the routing.
	weights []float64
	picks   []int
	owners  []int32
}

// Next draws every sample's top-k experts per layer, in sample order, then
// lays the layer's routing out in one backing array (layOut).
func (g *moeGen) Next(src *workload.Source, units int) graph.BatchRouting {
	rt := make(graph.BatchRouting, len(g.logits))
	if g.weights == nil {
		g.weights = make([]float64, moeExperts)
	}
	for li := range rt {
		for e, d := range g.logits[li] {
			g.weights[e] = math.Exp(d.Step(src))
		}
		g.picks, g.owners = g.picks[:0], g.owners[:0]
		for i := range int32(units) {
			from := len(g.picks)
			g.picks = src.AppendTopK(g.picks, g.weights, moeTopK)
			for range g.picks[from:] {
				g.owners = append(g.owners, i)
			}
		}
		var count [moeExperts]int
		rt[li] = graph.Routing{Branch: layOut(g.picks, g.owners, count[:])}
	}
	return rt
}
