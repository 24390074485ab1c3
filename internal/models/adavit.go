package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/workload"
)

const (
	adaPatches = 16
	adaLayers  = 4
)

// AdaViT builds the hybrid DynNN of [40], which combines patch selection
// (dynamic region) with layer skipping (dynamic depth) on a ViT backbone.
// The paper cites it as the hybrid its representation must also cover: the
// layer-skip switches are nested inside the keep branch of the patch-
// selection switch, exercising the nested-scope rules of Section IV.
func AdaViT(batchSamples int) (*Workload, error) { return adaViTModel.build(batchSamples) }

func adaViTGraph(batchSamples int) (*graph.Graph, error) {
	const (
		seq    = 16 // tokens per patch group
		hidden = 384
	)
	actBytes := int64(seq) * int64(hidden) * 2
	maxU := batchSamples * adaPatches

	b := graph.NewBuilder("adavit", adaPatches)
	in := b.Input("patches", actBytes, maxU)
	score := b.MatMul("scorer", in, hidden, 8)
	psGate := b.Gate("ps_gate", score, 8, 2)
	ps := b.Switch("ps_sw", in, psGate, 2)
	b.Sink("drop", ps[1])

	x := b.Elementwise("keep_embed", actBytes, ps[0])
	for l := 0; l < adaLayers; l++ {
		name := func(part string) string { return fmt.Sprintf("l%d_%s", l, part) }
		gate := b.Gate(name("gate"), x, hidden, 2)
		br := b.Switch(name("sw"), x, gate, 2)
		skip := b.Elementwise(name("skip"), actBytes, br[0])
		qkv := b.SeqMatMul(name("qkv"), br[1], seq, hidden, 3*hidden)
		attn := b.Attention(name("attn"), qkv, seq, hidden)
		proj := b.SeqMatMul(name("proj"), attn, seq, hidden, hidden)
		f1 := b.SeqMatMul(name("ffn1"), proj, seq, hidden, 4*hidden)
		f2 := b.SeqMatMul(name("ffn2"), f1, seq, 4*hidden, hidden)
		m := b.Merge(name("merge"), br, skip, f2)
		x = b.LayerNorm(name("ln"), m, actBytes)
	}
	mAll := b.Merge("gather", ps, x)
	agg := b.Pool("image_pool", mAll, actBytes, actBytes/int64(adaPatches)+1)
	cls := b.MatMul("head", agg, hidden, 1000/adaPatches)
	b.Output("logits", cls)

	return b.Build()
}

// adaViTOn's generator routes the patch switch (ordinal 0, built first) and
// then each layer's skip switch.
func adaViTOn(g *graph.Graph) *Workload {
	gen := &adaViTGen{meanKeep: workload.NewDrift(10, 4, 15, 0.1)}
	for i := range len(g.Switches()) - 1 {
		gen.skipProb = append(gen.skipProb, workload.NewDrift(0.3+0.08*float64(i), 0.05, 0.8, 0.01))
	}
	return &Workload{
		Name:         "AdaViT",
		Category:     "hybrid (region + depth)",
		Graph:        g,
		DefaultBatch: batchOf(g),
		Gen:          gen,
		Exclusive:    true,
	}
}

type adaViTGen struct {
	meanKeep *workload.Drift
	skipProb []*workload.Drift
	perm     []int // Next's scratch: one image's patch permutation
}

func (g *adaViTGen) Next(src *workload.Source, units int) graph.BatchRouting {
	images := units / adaPatches
	mean := g.meanKeep.Step(src)
	var keep, drop []int32
	for img := 0; img < images; img++ {
		k := src.NormInt(mean, 3, 1, adaPatches)
		g.perm = src.PermInto(g.perm, adaPatches)
		base := int32(img * adaPatches)
		var kept [adaPatches]bool
		for _, p := range g.perm[:k] {
			kept[p] = true
		}
		for p := range int32(adaPatches) {
			if kept[p] {
				keep = append(keep, base+p)
			} else {
				drop = append(drop, base+p)
			}
		}
	}
	for u := images * adaPatches; u < units; u++ {
		drop = append(drop, int32(u))
	}
	rt := make(graph.BatchRouting, 1+len(g.skipProb))
	rt[0] = graph.Routing{Branch: [][]int32{keep, drop}}
	for l := range g.skipProb {
		p := src.JitterProb(g.skipProb[l].Step(src), 0.06)
		var skip, run []int32
		for _, u := range keep {
			if src.Bernoulli(p) {
				skip = append(skip, u)
			} else {
				run = append(run, u)
			}
		}
		rt[1+l] = graph.Routing{Branch: [][]int32{skip, run}}
	}
	return rt
}
