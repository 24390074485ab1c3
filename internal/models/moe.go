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
func TutelMoE(batchSamples int) (*Workload, error) {
	if batchSamples < 1 {
		return nil, fmt.Errorf("models: batch %d must be positive", batchSamples)
	}
	const (
		seq    = 64
		hidden = 512
		expFFN = 1024
	)
	actBytes := int64(seq) * int64(hidden) * 2

	b := graph.NewBuilder("tutel-moe", 1)
	x := b.Input("tokens", actBytes, batchSamples)
	x = b.SeqMatMul("embed", x, seq, hidden, hidden)
	var swIDs []graph.OpID
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
		if id, ok := b.FindOp(name("sw")); ok {
			swIDs = append(swIDs, id)
		}
	}
	cls := b.MatMul("head", x, hidden, 10)
	b.Output("logits", cls)

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	gen := &moeGen{swIDs: swIDs}
	for range swIDs {
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
		DefaultBatch:    batchSamples,
		Gen:             gen,
		Exclusive:       false, // top-2: every sample activates two experts
		GPUFusedRouting: true,  // Tutel's fused expert kernels
	}, nil
}

type moeGen struct {
	swIDs  []graph.OpID
	logits [][]*workload.Drift
	// weights, picks and owners are Next's scratch (one layer's gate
	// weights; its samples' top-k experts and, beside each, the sample that
	// drew it), reused so Next allocates only the routing.
	weights []float64
	picks   []int
	owners  []int
}

// Next draws every sample's top-k experts per layer, in sample order, then
// lays the layer's routing out in one backing array: each expert's branch is
// a capped window of it, so an append by a consumer reallocates instead of
// overwriting the next expert's samples.
func (g *moeGen) Next(src *workload.Source, units int) graph.BatchRouting {
	rt := make(graph.BatchRouting, len(g.swIDs))
	if g.weights == nil {
		g.weights = make([]float64, moeExperts)
	}
	for li, sw := range g.swIDs {
		for e, d := range g.logits[li] {
			g.weights[e] = math.Exp(d.Step(src))
		}
		g.picks, g.owners = g.picks[:0], g.owners[:0]
		var count [moeExperts]int
		for i := 0; i < units; i++ {
			from := len(g.picks)
			g.picks = src.AppendTopK(g.picks, g.weights, moeTopK)
			for _, e := range g.picks[from:] {
				count[e]++
				g.owners = append(g.owners, i)
			}
		}
		backing := make([]int, len(g.picks))
		branches := make([][]int, moeExperts)
		off := 0
		for e, c := range count {
			if c > 0 {
				branches[e] = backing[off : off : off+c]
			}
			off += c
		}
		for k, e := range g.picks {
			branches[e] = append(branches[e], g.owners[k])
		}
		rt[sw] = graph.Routing{Branch: branches}
	}
	return rt
}
