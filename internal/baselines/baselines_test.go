package baselines

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/workload"
)

func trace(t testing.TB, name string, batch, n int) (*models.Workload, []workload.Batch) {
	t.Helper()
	w, err := models.ByName(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(5)
	return w, w.GenTrace(src, n, batch)
}

func TestGPURunsAllModels(t *testing.T) {
	cfg := hw.Default()
	for _, name := range models.Names() {
		w, tr := trace(t, name, 32, 5)
		r, err := GPU(cfg, w, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Cycles <= 0 || r.Batches != 5 {
			t.Fatalf("%s: bad result %+v", name, r)
		}
		if r.PEUtil <= 0 || r.PEUtil > 1 || r.HBMUtil <= 0 || r.HBMUtil > 1 {
			t.Fatalf("%s: utilizations out of range: %+v", name, r)
		}
		if r.MACs < r.UsefulMACs {
			t.Fatalf("%s: issued < useful MACs", name)
		}
	}
}

func TestMTenantRunsAllModels(t *testing.T) {
	cfg := hw.Default()
	for _, name := range models.Names() {
		w, tr := trace(t, name, 32, 5)
		r, err := MTenant(cfg, w, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Cycles <= 0 || r.Batches != 5 {
			t.Fatalf("%s: bad result %+v", name, r)
		}
		if r.NoCByteHops != 0 {
			t.Fatalf("%s: M-tenant must not use on-chip forwarding", name)
		}
		if r.HBMBytes == 0 {
			t.Fatalf("%s: M-tenant stages everything through HBM", name)
		}
	}
}

func TestGPUSlowestOnExclusiveRouting(t *testing.T) {
	// Dynamic operators without a fused routing library degrade hard; the
	// GPU must be far slower than M-tenant on SkipNet.
	cfg := hw.Default()
	w, tr := trace(t, "skipnet", 64, 5)
	gpu, err := GPU(cfg, w, tr)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := MTenant(cfg, w, tr)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.CyclesPerBatch() < 3*mt.CyclesPerBatch() {
		t.Fatalf("GPU (%0.f) should be much slower than M-tenant (%0.f) on SkipNet",
			gpu.CyclesPerBatch(), mt.CyclesPerBatch())
	}
}

func TestGPUFusedRoutingHelpsMoE(t *testing.T) {
	// Tutel's fused kernels keep the MoE GPU gap small: the ratio of GPU
	// time to useful-MAC-ideal time must be far better for MoE than SkipNet.
	cfg := hw.Default()
	ws, trs := trace(t, "skipnet", 64, 5)
	wm, trm := trace(t, "tutel-moe", 64, 5)
	gs, err := GPU(cfg, ws, trs)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := GPU(cfg, wm, trm)
	if err != nil {
		t.Fatal(err)
	}
	ideal := func(r struct {
		cycles, useful float64
	}) float64 {
		return r.cycles / (r.useful / float64(cfg.TotalPEs()))
	}
	slowdownSkip := ideal(struct{ cycles, useful float64 }{float64(gs.Cycles), float64(gs.UsefulMACs)})
	slowdownMoE := ideal(struct{ cycles, useful float64 }{float64(gm.Cycles), float64(gm.UsefulMACs)})
	if slowdownMoE >= slowdownSkip {
		t.Fatalf("MoE GPU inefficiency (%.1fx) should be below SkipNet's (%.1fx)",
			slowdownMoE, slowdownSkip)
	}
}

func TestMTenantSkipsInactiveTenants(t *testing.T) {
	// A branch receiving zero units must not be launched: MACs must be well
	// below the all-branches worst case.
	cfg := hw.Default()
	w, tr := trace(t, "fbsnet", 32, 5)
	r, err := MTenant(cfg, w, tr)
	if err != nil {
		t.Fatal(err)
	}
	var worst int64
	for _, op := range w.Graph.Ops {
		worst += op.TotalMACs(op.MaxUnits)
	}
	worst *= int64(len(tr))
	if r.MACs >= worst {
		t.Fatalf("M-tenant MACs %d should undercut the padded worst case %d", r.MACs, worst)
	}
}

func TestLevelizeRespectsDependencies(t *testing.T) {
	w, _ := trace(t, "skipnet", 8, 1)
	waves := levelize(w.Graph)
	pos := map[int]int{}
	for wi, wave := range waves {
		for _, id := range wave {
			pos[int(id)] = wi
		}
	}
	count := 0
	for _, op := range w.Graph.Ops {
		if !op.Kind.IsCompute() {
			continue
		}
		count++
		for _, in := range op.Inputs {
			if w.Graph.Op(in).Kind.IsCompute() && pos[int(in)] >= pos[int(op.ID)] {
				t.Fatalf("producer %v not in an earlier wave than %v", in, op.ID)
			}
		}
	}
	if count == 0 {
		t.Fatal("no compute ops levelized")
	}
}

func TestPartitionTilesBounds(t *testing.T) {
	cfg := hw.Default()
	w, tr := trace(t, "tutel-moe", 64, 1)
	units, err := w.Graph.AssignUnits(nil, tr[0].Units, tr[0].Routing)
	if err != nil {
		t.Fatal(err)
	}
	for _, wave := range levelize(w.Graph) {
		tiles := partitionTiles(nil, cfg, w.Graph, wave, units)
		total := 0
		for i, id := range wave {
			if tiles[i] < 1 {
				t.Fatalf("op %v got %d tiles", id, tiles[i])
			}
			total += tiles[i]
		}
		if total > cfg.Tiles() {
			t.Fatalf("wave uses %d tiles, chip has %d", total, cfg.Tiles())
		}
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	cfg := hw.Default()
	w1, tr1 := trace(t, "pabee", 16, 3)
	w2, tr2 := trace(t, "pabee", 16, 3)
	a, err := GPU(cfg, w1, tr1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GPU(cfg, w2, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.HBMBytes != b.HBMBytes {
		t.Fatal("GPU baseline not deterministic")
	}
}

// TestPartitionTilesConservation is the property test of the partitioner's
// conservation invariant: however wide the wave and however small the chip,
// the tiles handed out never exceed what the chip has. Small grids make waves
// wider than the chip (the historical over-provisioning case: every operator
// floored to one tile with the trim loop bailing out at one), and the default
// grid keeps the proportional path honest.
func TestPartitionTilesConservation(t *testing.T) {
	grids := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 3}, {12, 12}}
	for _, name := range models.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			w, err := models.ByName(name, 32)
			if err != nil {
				t.Fatal(err)
			}
			tr := w.GenTrace(workload.NewSource(seed), 2, 32)
			for _, b := range tr {
				units, err := w.Graph.AssignUnits(nil, b.Units, b.Routing)
				if err != nil {
					t.Fatal(err)
				}
				for _, grid := range grids {
					cfg := hw.Default()
					cfg.TilesX, cfg.TilesY = grid[0], grid[1]
					for _, wave := range levelize(w.Graph) {
						tiles := partitionTiles(nil, cfg, w.Graph, wave, units)
						total := 0
						for i, id := range wave {
							if tiles[i] < 0 {
								t.Fatalf("%s grid %v: op %v got %d tiles", name, grid, id, tiles[i])
							}
							total += tiles[i]
						}
						if total > cfg.Tiles() {
							t.Fatalf("%s seed %d grid %v: wave of %d ops uses %d tiles, chip has %d",
								name, seed, grid, len(wave), total, cfg.Tiles())
						}
					}
				}
			}
		}
	}
}

// buildNestedSwitchGraph is a two-level routed graph: the outer switch's
// second branch contains a whole inner switch/merge. Routing everything down
// branch 0 leaves the inner control operators with zero units.
func buildNestedSwitchGraph(t *testing.T) (*graph.Graph, map[string]graph.OpID) {
	t.Helper()
	b := graph.NewBuilder("nested", 1)
	in := b.Input("in", 32, 8)
	gate := b.Gate("gate", in, 16, 2)
	br := b.Switch("outer", in, gate, 2)
	p0 := b.MatMul("b0", br[0], 16, 16)
	m1 := b.MatMul("b1", br[1], 16, 16)
	gate2 := b.Gate("gate2", m1, 16, 2)
	br2 := b.Switch("inner", m1, gate2, 2)
	c1a := b.MatMul("b1a", br2[0], 16, 16)
	c1b := b.MatMul("b1b", br2[1], 16, 16)
	im := b.Merge("inner_merge", br2, c1a, c1b)
	om := b.Merge("outer_merge", br, p0, im)
	b.Output("out", om)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]graph.OpID{}
	for _, op := range g.Ops {
		ids[op.Name] = op.ID
	}
	return g, ids
}

// TestHostRoutingSkipsGatedControlOps pins the host-routing fix: a switch or
// merge that sees zero units this batch (its whole branch was gated off) must
// charge neither the 12k-cycle host round trip nor any gather/scatter
// traffic. Historically every control operator was charged unconditionally,
// overpricing M-tenant on routed-off subgraphs.
func TestHostRoutingSkipsGatedControlOps(t *testing.T) {
	g, ids := buildNestedSwitchGraph(t)
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	rt := graph.BatchRouting{
		{Branch: [][]int32{all, {}}},
		{Branch: [][]int32{{}, {}}},
	}
	units, err := g.AssignUnits(nil, 8, rt)
	if err != nil {
		t.Fatal(err)
	}
	if units[ids["inner"]] != 0 || units[ids["inner_merge"]] != 0 {
		t.Fatalf("inner control ops not gated: switch=%d merge=%d",
			units[ids["inner"]], units[ids["inner_merge"]])
	}
	cfg := hw.Default()
	bw := cfg.HBMBytesPerCycle()
	gotCycles, gotBytes := hostRoutingCost(g, units, bw)
	var wantCycles, wantBytes int64
	for _, name := range []string{"outer", "outer_merge"} {
		op := g.Op(ids[name])
		moved := 2 * op.InBytesPerUnit * 8
		wantCycles += hostRouteCycles + int64(math.Ceil(float64(moved)/bw))
		wantBytes += moved
	}
	if gotCycles != wantCycles || gotBytes != wantBytes {
		t.Fatalf("host routing charged %d cycles / %d bytes, want %d / %d (active control ops only)",
			gotCycles, gotBytes, wantCycles, wantBytes)
	}
	// Sanity: with the inner branch active the inner control ops are charged.
	rt2 := graph.BatchRouting{
		{Branch: [][]int32{{}, all}},
		{Branch: [][]int32{all, {}}},
	}
	units2, err := g.AssignUnits(nil, 8, rt2)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := hostRoutingCost(g, units2, bw)
	if c2 < gotCycles+2*hostRouteCycles {
		t.Fatalf("active inner branch charged %d cycles, want at least %d", c2, gotCycles+2*hostRouteCycles)
	}
}
