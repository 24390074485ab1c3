package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/workload"
)

// SkipNet builds the dynamic-depth layer-skipping network of [59]: a
// ResNet-style backbone whose residual blocks can be bypassed per sample via
// a cheaper single-conv path, following the representation of Figure 5(c)
// and the two-branch block of Figure 6 (B1: one conv, B2: two convs).
//
// The trace generator reproduces the statistics of the paper's SkipNet on
// ImageNet trace: on average about 5.03 of 8 samples take the cheap branch
// (p ~= 0.63), with per-batch jitter and slow per-block drift.
func SkipNet(batchSamples int) (*Workload, error) { return skipNetModel.build(batchSamples) }

func skipNetGraph(batchSamples int) (*graph.Graph, error) {
	b := graph.NewBuilder("skipnet", 1)
	maxU := batchSamples

	// Stem: 3x224x224 -> 64x56x56.
	in := b.Input("input", 3*224*224*2, maxU)
	stem := b.Conv2D("stem", in, graph.ConvSpec{
		InC: 3, OutC: 64, H: 224, W: 224, R: 7, S: 7, Stride: 4, Pad: 3,
	})
	x := b.Elementwise("stem_relu", 64*56*56*2, stem)

	// Four stages of two skip blocks each.
	type stage struct {
		ch, sp int
	}
	stages := []stage{{64, 56}, {128, 28}, {256, 14}, {512, 7}}
	prevCh, prevSp := 64, 56
	blockIdx := 0
	for si, st := range stages {
		// Downsample conv between stages.
		if st.ch != prevCh || st.sp != prevSp {
			x = b.Conv2D(fmt.Sprintf("down%d", si), x, graph.ConvSpec{
				InC: prevCh, OutC: st.ch, H: prevSp, W: prevSp, R: 1, S: 1, Stride: prevSp / st.sp,
			})
			prevCh, prevSp = st.ch, st.sp
		}
		actBytes := int64(st.ch) * int64(st.sp) * int64(st.sp) * 2
		for blk := 0; blk < 2; blk++ {
			name := func(part string) string { return fmt.Sprintf("b%d_%s", blockIdx, part) }
			gate := b.Gate(name("gate"), x, st.ch, 2)
			br := b.Switch(name("sw"), x, gate, 2)
			cs := graph.ConvSpec{InC: st.ch, OutC: st.ch, H: st.sp, W: st.sp, R: 3, S: 3, Stride: 1, Pad: 1}
			// B1: the cheap path, one conv.
			b1 := b.Conv2D(name("skip_conv"), br[0], cs)
			// B2: the full path, two convs.
			b2a := b.Conv2D(name("conv1"), br[1], cs)
			b2b := b.Conv2D(name("conv2"), b2a, cs)
			m := b.Merge(name("merge"), br, b1, b2b)
			x = b.Elementwise(name("relu"), actBytes, m)
			blockIdx++
		}
	}

	pool := b.Pool("gap", x, int64(prevCh)*int64(prevSp)*int64(prevSp)*2, int64(prevCh)*2)
	fc := b.MatMul("fc", pool, prevCh, 1000)
	b.Output("logits", fc)

	return b.Build()
}

func skipNetOn(g *graph.Graph) *Workload {
	gen := &skipNetGen{}
	for i := range g.Switches() {
		// Deeper blocks skip slightly more often, centred on the paper's
		// 5.03/8 average.
		base := 0.55 + 0.02*float64(i)
		d := workload.NewDrift(base, 0.2, 0.92, 0.012)
		d.Reverting = 0.0008 // near-free wander: schedules from stale profiles decay
		gen.drift = append(gen.drift, d)
	}
	return &Workload{
		Name:         "SkipNet",
		Category:     "dynamic depth",
		Graph:        g,
		DefaultBatch: batchOf(g),
		Gen:          gen,
		Exclusive:    true,
	}
}

type skipNetGen struct {
	drift []*workload.Drift
	b2Buf []int32 // Next's scratch for the second branch, reused across calls
}

func (g *skipNetGen) Next(src *workload.Source, units int) graph.BatchRouting {
	rt := make(graph.BatchRouting, len(g.drift))
	for bi := range rt {
		p := src.JitterProb(g.drift[bi].Step(src), 0.12)
		// Both branches share one exactly-sized array: b1 fills it from
		// the front, and b2, gathered in scratch, is copied in behind.
		b1 := make([]int32, 0, units)
		b2 := g.b2Buf[:0]
		for i := range int32(units) {
			if src.Bernoulli(p) {
				b1 = append(b1, i)
			} else {
				b2 = append(b2, i)
			}
		}
		g.b2Buf = b2
		n := len(b1)
		b1 = append(b1, b2...)
		rt[bi] = graph.Routing{Branch: [][]int32{b1[:n:n], b1[n:]}}
	}
	return rt
}
