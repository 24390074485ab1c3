package profiler

import (
	"testing"

	"repro/internal/graph"
)

// twoSwitchGraph builds a graph with one 3-branch switch for co-activation
// tests.
func twoSwitchGraph(t *testing.T) (*graph.Graph, graph.OpID) {
	b := graph.NewBuilder("p", 1)
	in := b.Input("in", 64, 8)
	gate := b.Gate("gate", in, 32, 3)
	br := b.Switch("sw", in, gate, 3)
	e0 := b.Elementwise("e0", 64, br[0])
	e1 := b.Elementwise("e1", 64, br[1])
	e2 := b.Elementwise("e2", 64, br[2])
	m := b.Merge("m", br, e0, e1, e2)
	b.Output("out", m)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Switches()[0]
}

func observe(t *testing.T, p *Profiler, g *graph.Graph, sw graph.OpID, branches [][]int, units int) {
	t.Helper()
	rt := graph.BatchRouting{sw: {Branch: branches}}
	um, err := g.AssignUnits(units, rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ObserveBatch(um, rt, 1); err != nil {
		t.Fatal(err)
	}
}

func TestObserveFillsFreqTables(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	observe(t, p, g, sw, [][]int{{0, 1}, {2}, {3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{0}, {}, {1, 2, 3, 4, 5, 6, 7}}, 8)
	if p.Batches() != 2 {
		t.Fatalf("batches = %d", p.Batches())
	}
	head0 := g.Op(g.Op(sw).Outputs[0])
	if head0.Freq.Total() != 2 {
		t.Fatalf("branch head observed %d batches", head0.Freq.Total())
	}
	if got := head0.Freq.Expectation(); got != 1.5 {
		t.Fatalf("expectation = %v, want 1.5", got)
	}
}

func TestCoActivation(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	// Branch 0 and 1 never together; 0 and 2 always together.
	observe(t, p, g, sw, [][]int{{0, 1}, {}, {2, 3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{}, {0, 1}, {2, 3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{0}, {}, {1, 2, 3, 4, 5, 6, 7}}, 8)
	if got := p.CoActivation(sw, 0, 1); got != 0 {
		t.Fatalf("coact(0,1) = %v, want 0", got)
	}
	if got := p.CoActivation(sw, 0, 2); got != 2.0/3 {
		t.Fatalf("coact(0,2) = %v, want 2/3", got)
	}
	i, j, ok := p.LeastCoActivePair(sw)
	if !ok || !((i == 0 && j == 1) || (i == 1 && j == 0)) {
		t.Fatalf("least co-active pair = (%d,%d)", i, j)
	}
	if got := p.BranchActiveFraction(sw, 1); got != 1.0/3 {
		t.Fatalf("active(1) = %v, want 1/3", got)
	}
}

func TestNoDataDefaults(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	if p.CoActivation(sw, 0, 1) != 1 {
		t.Fatal("no data should assume always-together")
	}
	if p.BranchActiveFraction(sw, 0) != 1 {
		t.Fatal("no data should assume always-active")
	}
}

func TestResetDecays(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	for i := 0; i < 4; i++ {
		observe(t, p, g, sw, [][]int{{0, 1}, {2}, {3, 4, 5, 6, 7}}, 8)
	}
	p.Reset()
	if p.Batches() != 2 {
		t.Fatalf("batches after decay = %d, want 2", p.Batches())
	}
	head0 := g.Op(g.Op(sw).Outputs[0])
	if head0.Freq.Total() != 2 {
		t.Fatalf("freq total after decay = %d, want 2", head0.Freq.Total())
	}
}

func TestObserveRejectsUnknownSwitch(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	rt := graph.BatchRouting{sw + 99: {Branch: [][]int{{0}}}}
	um := map[graph.OpID]int{}
	for _, op := range g.Ops {
		um[op.ID] = 0
	}
	if err := p.ObserveBatch(um, rt, 1); err == nil {
		t.Fatal("unknown switch accepted")
	}
}

func TestObserveRequiresAllDynamicUnits(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	rt := graph.BatchRouting{sw: {Branch: [][]int{{0}, {}, {}}}}
	if err := p.ObserveBatch(map[graph.OpID]int{}, rt, 1); err == nil {
		t.Fatal("missing unit counts accepted")
	}
}
