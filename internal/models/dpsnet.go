package models

import (
	"repro/internal/graph"
	"repro/internal/workload"
)

// dpsPatches is the number of patches an input image is divided into. With
// the paper's batch size of 128 this folds up to 8192 units onto the batch
// dimension ("DPSNet folds its dynamic dimensions into the batch dimension,
// further increasing the dyn_dim size up to 8192").
const dpsPatches = 64

// DPSNet builds the differentiable-patch-selection network of [12],
// following Figure 5(d): the patch iteration is folded into the batch
// dimension, a scorer network runs over every patch, and a switch keeps the
// informative patches while routing the rest to a sink. Kept patches run the
// heavy backbone; a merge and pooling stage aggregates them per image.
//
// The number of kept patches per image varies widely (objects sit in
// arbitrary regions), so the dyn value at the backbone has both a huge range
// and a large variance — the stress case for multi-kernel sampling.
func DPSNet(batchSamples int) (*Workload, error) { return dpsNetModel.build(batchSamples) }

func dpsNetGraph(batchSamples int) (*graph.Graph, error) {
	const (
		patchPx = 28 // each patch is a 28x28 RGB crop
		scoreCh = 16
		backCh  = 64
	)
	maxU := batchSamples * dpsPatches

	b := graph.NewBuilder("dpsnet", dpsPatches)
	in := b.Input("patches", 3*patchPx*patchPx*2, maxU)
	// Scorer: a light conv over every patch.
	score := b.Conv2D("scorer", in, graph.ConvSpec{
		InC: 3, OutC: scoreCh, H: patchPx, W: patchPx, R: 3, S: 3, Stride: 2, Pad: 1,
	})
	gate := b.Gate("select", score, scoreCh*14*14, 2)
	br := b.Switch("sw", in, gate, 2)

	// Kept patches: the heavy backbone.
	k1 := b.Conv2D("keep_conv1", br[0], graph.ConvSpec{
		InC: 3, OutC: backCh, H: patchPx, W: patchPx, R: 3, S: 3, Stride: 1, Pad: 1,
	})
	k2 := b.Conv2D("keep_conv2", k1, graph.ConvSpec{
		InC: backCh, OutC: backCh, H: patchPx, W: patchPx, R: 3, S: 3, Stride: 2, Pad: 1,
	})
	k3 := b.Conv2D("keep_conv3", k2, graph.ConvSpec{
		InC: backCh, OutC: 2 * backCh, H: 14, W: 14, R: 3, S: 3, Stride: 1, Pad: 1,
	})
	feat := b.Pool("patch_pool", k3, int64(2*backCh)*14*14*2, int64(2*backCh)*2)

	// Dropped patches vanish.
	b.Sink("drop", br[1])

	// Aggregate kept-patch features per image and classify.
	m := b.Merge("gather", []graph.Port{br[0], br[1]}, feat)
	agg := b.Pool("image_pool", m, int64(2*backCh)*2, int64(2*backCh)*2/int64(dpsPatches)+1)
	// The classifier runs once per image; its per-unit (per-patch) work model
	// is the per-image cost divided by the patch count: 128*1000/64 = 2000
	// MACs per unit, expressed as a 128 -> 16 dense layer.
	fc := b.MatMul("fc", agg, 2*backCh, 1000/dpsPatches)
	b.Output("logits", fc)

	return b.Build()
}

func dpsNetOn(g *graph.Graph) *Workload {
	return &Workload{
		Name:         "DPSNet",
		Category:     "dynamic region",
		Graph:        g,
		DefaultBatch: batchOf(g),
		Gen:          &dpsGen{meanKeep: slowDrift(24, 10, 44, 0.45)},
		Exclusive:    true,
	}
}

type dpsGen struct {
	meanKeep *workload.Drift
	// dropBuf and perm are Next's scratch (the drop list and one image's
	// patch permutation), reused across batches.
	dropBuf []int32
	perm    []int
}

func (g *dpsGen) Next(src *workload.Source, units int) graph.BatchRouting {
	images := units / dpsPatches
	mean := g.meanKeep.Step(src)
	// Every unit lands in exactly one branch, so both lists share one
	// exactly-sized array: keep fills it from the front and the drop list,
	// gathered in scratch, is copied in behind. A measured trace keeps every
	// batch's routing alive, and two full-size arrays per batch doubled it.
	keep := make([]int32, 0, units)
	drop := g.dropBuf[:0]
	for img := 0; img < images; img++ {
		// Patch count per image: wide spread (objects sit in arbitrary
		// regions), clamped to [4, 56].
		k := src.NormInt(mean, 10, 4, 56)
		g.perm = src.PermInto(g.perm, dpsPatches)
		base := int32(img * dpsPatches)
		var kept [dpsPatches]bool
		for _, p := range g.perm[:k] {
			kept[p] = true
		}
		for p := range int32(dpsPatches) {
			if kept[p] {
				keep = append(keep, base+p)
			} else {
				drop = append(drop, base+p)
			}
		}
	}
	// Units beyond whole images (none at default batch sizes) are dropped.
	for u := images * dpsPatches; u < units; u++ {
		drop = append(drop, int32(u))
	}
	g.dropBuf = drop
	n := len(keep)
	keep = append(keep, drop...)
	keep, drop = keep[:n:n], keep[n:]
	return graph.BatchRouting{{Branch: [][]int32{keep, drop}}}
}
