package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/workload"
)

// ranetScales lists the resolution branches (input side length in pixels) of
// the resolution-adaptive network: easy samples take the cheap low-resolution
// sub-network, hard ones escalate. Costs differ by roughly the resolution
// ratio squared.
var ranetScales = []int{112, 160, 224}

// RANet builds a resolution-adaptive network in the spirit of [63] (cited in
// the paper's introduction as another dynamic-routing DynNN): a difficulty
// gate routes each sample to one of three sub-networks operating at
// different input resolutions. It is an *extension* workload beyond the
// paper's Table I set — branch costs differ by ~4x, so mis-allocation is
// punished much harder than in SkipNet's 1:2 blocks, stressing
// frequency-weighted allocation and tile sharing.
func RANet(batchSamples int) (*Workload, error) { return raNetModel.build(batchSamples) }

func raNetGraph(batchSamples int) (*graph.Graph, error) {
	b := graph.NewBuilder("ranet", 1)
	in := b.Input("input", 3*224*224*2, batchSamples)
	// Difficulty scorer: a cheap downsampled conv plus a gate.
	scorer := b.Conv2D("scorer", in, graph.ConvSpec{
		InC: 3, OutC: 16, H: 224, W: 224, R: 3, S: 3, Stride: 8, Pad: 1,
	})
	gate := b.Gate("difficulty", scorer, 16*28*28, len(ranetScales))
	br := b.Switch("res_sw", in, gate, len(ranetScales))

	outs := make([]graph.Port, len(ranetScales))
	for i, px := range ranetScales {
		name := func(part string) string { return fmt.Sprintf("r%d_%s", px, part) }
		sp := px / 4 // feature map side after the stem
		x := b.Conv2D(name("stem"), br[i], graph.ConvSpec{
			InC: 3, OutC: 64, H: px, W: px, R: 7, S: 7, Stride: 4, Pad: 3,
		})
		x = b.Conv2D(name("conv1"), x, graph.ConvSpec{
			InC: 64, OutC: 64, H: sp, W: sp, R: 3, S: 3, Stride: 1, Pad: 1,
		})
		x = b.Conv2D(name("conv2"), x, graph.ConvSpec{
			InC: 64, OutC: 128, H: sp, W: sp, R: 3, S: 3, Stride: 2, Pad: 1,
		})
		outs[i] = b.Pool(name("pool"), x, int64(128)*int64(sp/2)*int64(sp/2)*2, 128*2)
	}
	m := b.Merge("gather", br, outs...)
	fc := b.MatMul("fc", m, 128, 1000)
	b.Output("logits", fc)

	return b.Build()
}

func raNetOn(g *graph.Graph) *Workload {
	return &Workload{
		Name:         "RANet",
		Category:     "dynamic routing (extension)",
		Graph:        g,
		DefaultBatch: batchOf(g),
		Gen: &ranetGen{
			// Mean difficulty drifts: easy-heavy traffic shifts toward
			// hard-heavy and back.
			easy: slowDrift(0.55, 0.2, 0.8, 0.015),
		},
		Exclusive: true,
	}
}

type ranetGen struct {
	easy *workload.Drift
}

func (g *ranetGen) Next(src *workload.Source, units int) graph.BatchRouting {
	pEasy := g.easy.Step(src)
	// The remainder splits 2:1 between medium and hard.
	branches := make([][]int32, len(ranetScales))
	for u := range int32(units) {
		r := src.Float64()
		switch {
		case r < pEasy:
			branches[0] = append(branches[0], u)
		case r < pEasy+(1-pEasy)*2/3:
			branches[1] = append(branches[1], u)
		default:
			branches[2] = append(branches[2], u)
		}
	}
	return graph.BatchRouting{{Branch: branches}}
}
