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
	head0 := p.Freq(g.Op(sw).Outputs[0])
	if head0.Total() != 2 {
		t.Fatalf("branch head observed %d batches", head0.Total())
	}
	if got := head0.Expectation(); got != 1.5 {
		t.Fatalf("expectation = %v, want 1.5", got)
	}
	if p.Freq(g.Inputs()[0]) != nil {
		t.Fatal("static operator has a frequency table")
	}
	if (*Profiler)(nil).Freq(g.Op(sw).Outputs[0]) != nil {
		t.Fatal("nil profiler has a frequency table")
	}
	// A second profiler on the same graph keeps its own tables.
	if fresh := New(g).Freq(g.Op(sw).Outputs[0]); fresh.Total() != 0 {
		t.Fatalf("a new profiler starts from %d observations of another", fresh.Total())
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
	if got := p.Freq(g.Op(sw).Outputs[0]).Total(); got != 2 {
		t.Fatalf("freq total after decay = %d, want 2", got)
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

// TestSnapshotMatchesStatistics checks the snapshot against the per-branch
// statistics it gathers: active fractions and the density mean equal their
// accessors, shares sum to 1, and the buffer is refilled, not reallocated.
func TestSnapshotMatchesStatistics(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	first := p.Snapshot()
	if len(first.Share) != 3 || first.Share[0] != 0 || first.Active[0] != 1 || first.Density != 1 {
		t.Fatalf("empty snapshot = %+v, want zero shares, active 1, density 1", *first)
	}
	observe(t, p, g, sw, [][]int{{0, 1}, {}, {2, 3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{0}, {1}, {2, 3, 4, 5, 6, 7}}, 8)
	s := p.Snapshot()
	if s != first {
		t.Fatal("Snapshot returned a new buffer")
	}
	sum := 0.0
	for b := range s.Share {
		sum += s.Share[b]
		if s.Active[b] != p.BranchActiveFraction(sw, b) {
			t.Fatalf("active[%d] = %v, want %v", b, s.Active[b], p.BranchActiveFraction(sw, b))
		}
	}
	if s.Share[0] != 3.0/16 || sum != 1 {
		t.Fatalf("shares %v, want 3/16 first and a sum of 1", s.Share)
	}
	if s.Density != p.OpDensityMean() {
		t.Fatalf("density = %v, want %v", s.Density, p.OpDensityMean())
	}
}
