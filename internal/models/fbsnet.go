package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/workload"
)

// fbsGroups is the number of channel groups per FBS layer.
const fbsGroups = 8

// FBSNet builds the dynamic channel-pruning network of [19], following
// Figure 5(b): each prunable convolution is divided into sub-operators along
// the input-channel dimension, each a branch of a switch selected per sample
// by a saliency gate; a merge accumulates the partial sums. Branch loads are
// highly skewed — some channel groups are selected for almost every sample
// while others almost never run — which is exactly the situation the paper's
// branch-grouping optimization targets.
func FBSNet(batchSamples int) (*Workload, error) {
	if batchSamples < 1 {
		return nil, fmt.Errorf("models: batch %d must be positive", batchSamples)
	}
	b := graph.NewBuilder("fbsnet", 1)
	in := b.Input("input", 3*224*224*2, batchSamples)
	stem := b.Conv2D("stem", in, graph.ConvSpec{
		InC: 3, OutC: 64, H: 224, W: 224, R: 7, S: 7, Stride: 4, Pad: 3,
	})
	x := b.Elementwise("stem_relu", 64*56*56*2, stem)

	type layer struct{ ch, sp int }
	layers := []layer{{64, 56}, {128, 28}, {256, 14}, {512, 7}}
	var swIDs []graph.OpID
	prevCh, prevSp := 64, 56
	for li, ly := range layers {
		if ly.ch != prevCh || ly.sp != prevSp {
			x = b.Conv2D(fmt.Sprintf("down%d", li), x, graph.ConvSpec{
				InC: prevCh, OutC: ly.ch, H: prevSp, W: prevSp, R: 1, S: 1, Stride: prevSp / ly.sp,
			})
			prevCh, prevSp = ly.ch, ly.sp
		}
		name := func(part string) string { return fmt.Sprintf("fbs%d_%s", li, part) }
		gate := b.Gate(name("gate"), x, ly.ch, fbsGroups)
		br := b.Switch(name("sw"), x, gate, fbsGroups)
		subs := make([]graph.Port, fbsGroups)
		for gidx := 0; gidx < fbsGroups; gidx++ {
			// Each sub-operator convolves one input-channel group into the
			// full output channels (a dense slice of the original conv).
			subs[gidx] = b.Conv2D(name(fmt.Sprintf("sub%d", gidx)), br[gidx], graph.ConvSpec{
				InC: ly.ch / fbsGroups, OutC: ly.ch, H: ly.sp, W: ly.sp, R: 3, S: 3, Stride: 1, Pad: 1,
			})
		}
		m := b.Merge(name("merge"), br, subs...)
		x = b.Elementwise(name("relu"), int64(ly.ch)*int64(ly.sp)*int64(ly.sp)*2, m)
		if id, ok := b.FindOp(name("sw")); ok {
			swIDs = append(swIDs, id)
		}
	}
	pool := b.Pool("gap", x, int64(prevCh)*int64(prevSp)*int64(prevSp)*2, int64(prevCh)*2)
	fc := b.MatMul("fc", pool, prevCh, 1000)
	b.Output("logits", fc)

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	gen := &fbsGen{swIDs: swIDs}
	for range swIDs {
		// Group popularity is Zipf-skewed; the mean kept-group count drifts.
		gen.keep = append(gen.keep, slowDrift(4, 2, 6, 0.04))
		gen.weights = append(gen.weights, workload.ZipfWeights(fbsGroups, 1.6))
	}
	return &Workload{
		Name:         "FBSNet",
		Category:     "dynamic width",
		Graph:        g,
		DefaultBatch: batchSamples,
		Gen:          gen,
		Exclusive:    false, // samples select several channel groups at once
	}, nil
}

type fbsGen struct {
	swIDs   []graph.OpID
	keep    []*workload.Drift
	weights [][]float64
	topk    []int // Next's scratch: one sample's kept groups
}

func (g *fbsGen) Next(src *workload.Source, units int) graph.BatchRouting {
	rt := graph.BatchRouting{}
	for li, sw := range g.swIDs {
		meanK := g.keep[li].Step(src)
		branches := make([][]int, fbsGroups)
		for i := 0; i < units; i++ {
			k := src.NormInt(meanK, 1.2, 1, fbsGroups)
			g.topk = src.AppendTopK(g.topk[:0], g.weights[li], k)
			for _, gidx := range g.topk {
				branches[gidx] = append(branches[gidx], i)
			}
		}
		rt[sw] = graph.Routing{Branch: branches}
	}
	return rt
}
