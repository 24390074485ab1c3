package profiler

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// densityGraph builds a graph with one density-aware operator so the
// profiler's density window is armed.
func densityGraph(t *testing.T) (*graph.Graph, graph.OpID) {
	t.Helper()
	b := graph.NewBuilder("d", 1)
	in := b.Input("in", 256*2, 8)
	gate := b.Gate("gate", in, 32, 3)
	br := b.Switch("sw", in, gate, 3)
	agg := b.SeqMatMul("agg", br[0], 16, 16, 16)
	b.Sparse(agg)
	e1 := b.Elementwise("e1", 512, br[1])
	e2 := b.Elementwise("e2", 512, br[2])
	m := b.Merge("m", br, agg, e1, e2)
	b.Output("out", m)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Switches()[0]
}

func observeDensity(t *testing.T, p *Profiler, g *graph.Graph, sw graph.OpID, density float64) {
	t.Helper()
	rt := graph.BatchRouting{sw: {Branch: [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}}}
	um, err := g.AssignUnits(8, rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ObserveBatch(um, rt, density); err != nil {
		t.Fatal(err)
	}
}

// TestOpDensityMeanWindowsAcrossReset checks the density statistic behaves
// like every other profile window: the mean is exactly preserved across a
// Reset (sum and count halve together), post-Reset observations carry double
// weight, and a fully drained window falls back to the assume-dense default.
func TestOpDensityMeanWindowsAcrossReset(t *testing.T) {
	g, sw := densityGraph(t)
	p := New(g)
	if got := p.OpDensityMean(); got != 1 {
		t.Fatalf("no-observation default = %v, want 1 (assume dense)", got)
	}
	for i := 0; i < 4; i++ {
		observeDensity(t, p, g, sw, 0.4)
	}
	if got := p.OpDensityMean(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("mean = %v, want 0.4", got)
	}

	p.Reset()
	if got := p.OpDensityMean(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("mean after Reset = %v, want 0.4 exactly preserved", got)
	}

	// Two fresh sparse batches against the halved (weight-2) history:
	// (2*0.4 + 2*0.1) / 4 = 0.25 — new observations weigh double.
	observeDensity(t, p, g, sw, 0.1)
	observeDensity(t, p, g, sw, 0.1)
	if got := p.OpDensityMean(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("mean after refill = %v, want 0.25", got)
	}

	// Unset and out-of-range densities count as fully dense, never poison
	// the window.
	observeDensity(t, p, g, sw, 0)
	observeDensity(t, p, g, sw, 1.7)
	if got := p.OpDensityMean(); got <= 0.25 || got > 1 {
		t.Fatalf("mean after unset-density batches = %v, want pulled toward 1 within (0,1]", got)
	}

	// Repeated Reset decays toward the default without ever leaving (0,1].
	for i := 0; i < 60; i++ {
		p.Reset()
		if got := p.OpDensityMean(); got <= 0 || got > 1 {
			t.Fatalf("mean left (0,1] during drain: %v", got)
		}
	}
}

// TestDensityWindowGatedOnDensityOps pins the byte-identity guarantee for
// routing-only models: without density-aware operators the window never arms,
// so ObserveBatchDensity is exactly ObserveBatch and the mean stays the
// dense default no matter what densities batches carry.
func TestDensityWindowGatedOnDensityOps(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	rt := graph.BatchRouting{sw: {Branch: [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}}}
	um, err := g.AssignUnits(8, rt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.ObserveBatch(um, rt, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.OpDensityMean(); got != 1 {
		t.Fatalf("routing-only graph tracked density: mean = %v, want 1", got)
	}
}
