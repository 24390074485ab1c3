package sched

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/workload"
)

func TestPolicyPresets(t *testing.T) {
	for name, pol := range map[string]Policy{
		"adyna":       Adyna(),
		"static":      AdynaStatic(),
		"mtile":       MTile(),
		"full-kernel": FullKernelIdeal(),
	} {
		if err := pol.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
	if !Adyna().TileSharing || AdynaStatic().TileSharing {
		t.Fatal("tile sharing flags wrong in presets")
	}
	if MTile().MultiKernel || MTile().RuntimeFitting {
		t.Fatal("M-tile must be single-kernel without fitting")
	}
}

func TestPolicyValidateRejectsContradictions(t *testing.T) {
	if err := (Policy{FullKernel: true}).Validate(); err == nil {
		t.Fatal("FullKernel without MultiKernel accepted")
	}
	if err := (Policy{TileSharing: true}).Validate(); err == nil {
		t.Fatal("TileSharing without MultiKernel accepted")
	}
	if err := (Policy{GroupThreshold: 2}).Validate(); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	if err := (Policy{GroupThreshold: math.NaN()}).Validate(); err == nil {
		t.Fatal("NaN threshold accepted")
	}
}

func scheduleModel(t testing.TB, name string, pol Policy, warmBatches int) (*Plan, *models.Workload, *profiler.Profiler) {
	t.Helper()
	cfg := hw.Default()
	w, err := models.ByName(name, 64)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(w.Graph)
	if warmBatches > 0 {
		src := workload.NewSource(1)
		for _, b := range w.GenTrace(src, warmBatches, 64) {
			units, err := w.Graph.AssignUnits(b.Units, b.Routing)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.ObserveBatch(units, b.Routing, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan, err := Schedule(cfg, w.Graph, pol, prof)
	if err != nil {
		t.Fatalf("schedule %s: %v", name, err)
	}
	if err := plan.Validate(cfg, w.Graph); err != nil {
		t.Fatalf("plan for %s invalid: %v", name, err)
	}
	return plan, w, prof
}

func TestScheduleAllModelsAllPolicies(t *testing.T) {
	policies := map[string]Policy{
		"mtile":  MTile(),
		"static": AdynaStatic(),
		"adyna":  Adyna(),
	}
	for _, name := range models.Names() {
		for pname, pol := range policies {
			t.Run(name+"/"+pname, func(t *testing.T) {
				plan, _, _ := scheduleModel(t, name, pol, 8)
				if len(plan.Segments) == 0 {
					t.Fatal("no segments")
				}
			})
		}
	}
}

func TestSegmentationRespectsMemory(t *testing.T) {
	cfg := hw.Default()
	// PABEE's BERT weights (~170 MB) exceed the 72 MB scratchpad, so it must
	// split into multiple segments.
	plan, _, _ := scheduleModel(t, "pabee", MTile(), 0)
	if len(plan.Segments) < 2 {
		t.Fatalf("PABEE must need several segments, got %d", len(plan.Segments))
	}
	var total int64
	for _, s := range plan.Segments {
		if float64(s.WeightBytes) > memoryFraction*float64(cfg.TotalScratchpadBytes()) {
			t.Fatalf("segment %d weights %d exceed scratchpad budget", s.Index, s.WeightBytes)
		}
		total += s.WeightBytes
	}
	if total < 100<<20 {
		t.Fatalf("BERT-base weights look too small: %d", total)
	}
}

func TestFrequencyWeightedAllocationFollowsLoad(t *testing.T) {
	// Build the Figure 6 block: B1 (1 conv) gets ~5.03/8 of samples, B2
	// (2 convs) the rest. Static allocation gives B1:B2 = 1:2 in compute
	// terms; frequency-weighted allocation should shift tiles toward B1.
	cfg := hw.Default()
	b := graph.NewBuilder("fig6", 1)
	cs := graph.ConvSpec{InC: 64, OutC: 64, H: 28, W: 28, R: 3, S: 3, Stride: 1, Pad: 1}
	in := b.Input("in", int64(64*28*28*2), 8)
	gate := b.Gate("gate", in, 64, 2)
	br := b.Switch("sw", in, gate, 2)
	b1 := b.Conv2D("b1", br[0], cs)
	b2a := b.Conv2D("b2a", br[1], cs)
	b2b := b.Conv2D("b2b", b2a, cs)
	m := b.Merge("m", br, b1, b2b)
	b.Output("out", m)
	g := b.MustBuild()
	swID, _ := b.FindOp("sw")
	b1ID, _ := b.FindOp("b1")
	b2aID, _ := b.FindOp("b2a")
	b2bID, _ := b.FindOp("b2b")

	// Feed the paper's 5.03 : 2.97 distribution.
	prof := profiler.New(g)
	src := workload.NewSource(2)
	for i := 0; i < 200; i++ {
		var l0, l1 []int
		for s := 0; s < 8; s++ {
			if src.Bernoulli(5.03 / 8) {
				l0 = append(l0, s)
			} else {
				l1 = append(l1, s)
			}
		}
		rt := graph.BatchRouting{swID: {Branch: [][]int{l0, l1}}}
		units, err := g.AssignUnits(8, rt)
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.ObserveBatch(units, rt, 1); err != nil {
			t.Fatal(err)
		}
	}

	tilesOf := func(pol Policy) (tb1, tb2 int) {
		plan, err := Schedule(cfg, g, pol, prof)
		if err != nil {
			t.Fatal(err)
		}
		seg := plan.Segments[0]
		tb1 = seg.Plans[b1ID].BaseTiles
		tb2 = seg.Plans[b2aID].BaseTiles + seg.Plans[b2bID].BaseTiles
		return tb1, tb2
	}
	sb1, sb2 := tilesOf(MTile())
	fb1, fb2 := tilesOf(AdynaStatic())
	// Static: compute ratio 1:2 -> B1 gets about a third of the branch tiles.
	// Frequency-weighted: (1 x 5.03) : (2 x 2.97) ~= 0.46 : 0.54.
	staticShare := float64(sb1) / float64(sb1+sb2)
	freqShare := float64(fb1) / float64(fb1+fb2)
	if freqShare <= staticShare {
		t.Fatalf("frequency weighting did not shift tiles toward the popular branch: static %.2f freq %.2f",
			staticShare, freqShare)
	}
	if freqShare < 0.38 || freqShare > 0.60 {
		t.Fatalf("frequency-weighted B1 share %.2f far from the paper's ~0.46", freqShare)
	}
}

func TestTileSharingCreatesThreeOptions(t *testing.T) {
	plan, w, _ := scheduleModel(t, "skipnet", Adyna(), 16)
	shared := 0
	for _, seg := range plan.Segments {
		for _, p := range seg.Plans {
			if p.Partner == graph.None {
				continue
			}
			shared++
			if len(p.Options) != 3 {
				t.Fatalf("shared entity %s has %d options, want 3 (ratios a:b, 2a:b, a:2b)",
					w.Graph.Op(p.Lead).Name, len(p.Options))
			}
			tot := p.Options[0].Tiles
			partner := seg.Plans[p.Partner]
			for k := range p.Options {
				if p.Options[k].Tiles+partner.Options[k].Tiles != tot+partner.Options[0].Tiles {
					t.Fatal("option pair must conserve the pooled tile count")
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("tile sharing produced no shared pairs on SkipNet")
	}
}

func TestBranchGroupingOnSkewedLoads(t *testing.T) {
	// FBSNet's Zipf-skewed channel groups leave some branches almost never
	// activated; grouping must put at least two of them on shared tiles.
	pol := Adyna()
	pol.GroupThreshold = 0.4
	plan, w, _ := scheduleModel(t, "fbsnet", pol, 32)
	grouped := 0
	for _, seg := range plan.Segments {
		for _, p := range seg.Plans {
			if p.GroupLeader != graph.None && p.GroupLeader != p.Lead {
				grouped++
				leader := seg.Plans[p.GroupLeader]
				if p.Region != leader.Region {
					t.Fatalf("grouped entity %s does not reuse leader tiles", w.Graph.Op(p.Lead).Name)
				}
			}
		}
	}
	if grouped == 0 {
		t.Fatal("no branches grouped despite heavy skew")
	}
}

func TestMTileSingleWorstCaseKernel(t *testing.T) {
	plan, w, _ := scheduleModel(t, "skipnet", MTile(), 0)
	cfg := hw.Default()
	for _, seg := range plan.Segments {
		for _, p := range seg.Plans {
			lead := w.Graph.Op(p.Lead)
			if lead.Space[0] == 0 {
				continue
			}
			if len(p.Options) != 1 {
				t.Fatalf("M-tile entity %s has %d options", lead.Name, len(p.Options))
			}
			k, err := p.Options[0].kernel(plan, w.Graph, cfg, lead, lead.MaxUnits)
			if err != nil {
				t.Fatal(err)
			}
			if k.CompiledUnits != lead.MaxUnits {
				t.Fatalf("M-tile kernel compiled for %d, want worst case %d", k.CompiledUnits, lead.MaxUnits)
			}
			if len(p.Values) != 1 {
				t.Fatalf("M-tile must store exactly one kernel value, got %v", p.Values)
			}
		}
	}
}

func TestFullKernelCompilesOnDemand(t *testing.T) {
	plan, w, _ := scheduleModel(t, "skipnet", FullKernelIdeal(), 8)
	cfg := hw.Default()
	for _, seg := range plan.Segments {
		for _, p := range seg.Plans {
			lead := w.Graph.Op(p.Lead)
			if lead.Space[0] == 0 || !lead.Dynamic {
				continue
			}
			k, err := p.Options[0].kernel(plan, w.Graph, cfg, lead, 13)
			if err != nil {
				t.Fatal(err)
			}
			if k.CompiledUnits != 13 {
				t.Fatalf("full-kernel must match exactly: compiled %d for actual 13", k.CompiledUnits)
			}
			// Memoized on second call.
			k2, _ := p.Options[0].kernel(plan, w.Graph, cfg, lead, 13)
			if k2 != k {
				t.Fatal("dense kernel store must memoize")
			}
			return
		}
	}
	t.Fatal("no dynamic matrix entity found")
}

func TestKernelBudgetRespected(t *testing.T) {
	cfg := hw.Default()
	plan, _, _ := scheduleModel(t, "dpsnet", Adyna(), 16)
	for _, seg := range plan.Segments {
		for _, p := range seg.Plans {
			stored := 0
			for _, o := range p.Options {
				stored += o.KernelCount()
			}
			if p.Partner != graph.None {
				partner := seg.Plans[p.Partner]
				pstored := 0
				for _, o := range partner.Options {
					pstored += o.KernelCount()
				}
				if (stored+pstored)*cfg.KernelMetaBytes > cfg.KernelBudgetBytes {
					t.Fatalf("shared pair stores %d kernels, over budget", stored+pstored)
				}
			} else if stored*cfg.KernelMetaBytes > cfg.KernelBudgetBytes {
				t.Fatalf("entity stores %d kernels, over budget", stored)
			}
		}
	}
}

func TestEvaluateEntityMonotone(t *testing.T) {
	cfg := hw.Default()
	plan, w, _ := scheduleModel(t, "skipnet", Adyna(), 8)
	for _, seg := range plan.Segments {
		for _, p := range seg.Plans {
			lead := w.Graph.Op(p.Lead)
			if !lead.Dynamic || lead.Space[0] == 0 {
				continue
			}
			lo, err := plan.EvaluateEntityDensity(cfg, w.Graph, p, p.Options[0], 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			hi, err := plan.EvaluateEntityDensity(cfg, w.Graph, p, p.Options[0], lead.MaxUnits, 1)
			if err != nil {
				t.Fatal(err)
			}
			if lo.Cycles > hi.Cycles {
				t.Fatalf("entity %s: fewer units costs more (%d > %d)", lead.Name, lo.Cycles, hi.Cycles)
			}
			return
		}
	}
}

func TestRescheduleAdaptsToDrift(t *testing.T) {
	// After the load distribution shifts, re-scheduling must change the
	// sampled kernel values of at least one dynamic operator.
	cfg := hw.Default()
	w, err := models.ByName("dpsnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(w.Graph)
	feed := func(mean float64, n int) {
		src := workload.NewSource(int64(mean))
		sw := w.Graph.Switches()[0]
		units := w.BatchUnits(64)
		for i := 0; i < n; i++ {
			var keep, drop []int
			for u := 0; u < units; u++ {
				if src.Bernoulli(mean) {
					keep = append(keep, u)
				} else {
					drop = append(drop, u)
				}
			}
			rt := graph.BatchRouting{sw: {Branch: [][]int{keep, drop}}}
			um, err := w.Graph.AssignUnits(units, rt)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.ObserveBatch(um, rt, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0.1, 50)
	p1, err := Schedule(cfg, w.Graph, Adyna(), prof)
	if err != nil {
		t.Fatal(err)
	}
	prof.Reset()
	feed(0.9, 400)
	p2, err := Schedule(cfg, w.Graph, Adyna(), prof)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i, seg := range p1.Segments {
		for lead, pl := range seg.Plans {
			pl2, ok := p2.Segments[i].Plans[lead]
			if !ok || len(pl.Values) != len(pl2.Values) {
				changed = true
				continue
			}
			for j := range pl.Values {
				if pl.Values[j] != pl2.Values[j] {
					changed = true
				}
			}
		}
	}
	if !changed {
		t.Fatal("re-scheduling ignored a major distribution shift")
	}
}

func BenchmarkScheduleSkipNet(b *testing.B) {
	cfg := hw.Default()
	w, err := models.ByName("skipnet", 64)
	if err != nil {
		b.Fatal(err)
	}
	prof := profiler.New(w.Graph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(cfg, w.Graph, Adyna(), prof); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: tile allocation conserves the chip — every segment's base
// allocation totals at most the tile count and every entity gets at least
// one tile, across random profiles.
func TestQuickAllocationConservation(t *testing.T) {
	cfg := hw.Default()
	f := func(seed int64) bool {
		w, err := models.ByName("fbsnet", 64)
		if err != nil {
			return false
		}
		prof := profiler.New(w.Graph)
		src := workload.NewSource(seed)
		for _, b := range w.GenTrace(src, 6, 64) {
			units, err := w.Graph.AssignUnits(b.Units, b.Routing)
			if err != nil {
				return false
			}
			if err := prof.ObserveBatch(units, b.Routing, 1); err != nil {
				return false
			}
		}
		plan, err := Schedule(cfg, w.Graph, Adyna(), prof)
		if err != nil {
			return false
		}
		for _, seg := range plan.Segments {
			if seg.TotalTiles() > cfg.Tiles() {
				return false
			}
			for _, p := range seg.Plans {
				if p.BaseTiles < 1 {
					return false
				}
				for _, o := range p.Options {
					if o.Tiles < 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentationHandlesTinyChip(t *testing.T) {
	// A chip with very few tiles forces many segments but must still
	// schedule everything.
	cfg := hw.Default()
	cfg.TilesX, cfg.TilesY = 3, 3
	w, err := models.ByName("skipnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Schedule(cfg, w.Graph, MTile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(cfg, w.Graph); err != nil {
		t.Fatal(err)
	}
	if len(plan.Segments) < 2 {
		t.Fatalf("9 tiles should force multiple segments, got %d", len(plan.Segments))
	}
}

func TestScheduleWithoutProfiler(t *testing.T) {
	// nil profiler = worst-case expectations; must still produce a valid
	// plan for every policy.
	cfg := hw.Default()
	w, err := models.ByName("tutel-moe", 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{MTile(), AdynaStatic(), Adyna(), FullKernelIdeal()} {
		plan, err := Schedule(cfg, w.Graph, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(cfg, w.Graph); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVectorEntityStandalone(t *testing.T) {
	// A vector op whose producer is a control op becomes its own entity and
	// must still be schedulable (no kernel store, costed directly).
	b := graph.NewBuilder("veconly", 1)
	in := b.Input("in", 1024, 8)
	g1 := b.Gate("g1", in, 64, 2)
	br := b.Switch("sw", in, g1, 2)
	e0 := b.Elementwise("idA", 1024, br[0])
	e1 := b.Elementwise("idB", 1024, br[1])
	m := b.Merge("m", br, e0, e1)
	relu := b.Elementwise("relu", 1024, m) // producer is a merge
	fc := b.MatMul("fc", relu, 64, 10)
	b.Output("o", fc)
	g := b.MustBuild()
	plan, err := Schedule(hw.Default(), g, Adyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(hw.Default(), g); err != nil {
		t.Fatal(err)
	}
	// relu leads its own entity.
	found := false
	for _, seg := range plan.Segments {
		for lead := range seg.Plans {
			if g.Op(lead).Name == "relu" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("standalone vector entity missing")
	}
}

func TestChipMapRenders(t *testing.T) {
	cfg := hw.Default()
	plan, w, _ := scheduleModel(t, "skipnet", Adyna(), 8)
	s, err := plan.ChipMap(cfg, w.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "legend:") || !strings.Contains(s, "tiles=") {
		t.Fatalf("chip map missing structure:\n%s", s)
	}
	// Grid has TilesY rows of TilesX cells.
	lines := strings.Split(s, "\n")
	gridRows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, " ") && len(strings.Fields(l)) == cfg.TilesX {
			gridRows++
		}
	}
	if gridRows < cfg.TilesY {
		t.Fatalf("grid rows = %d, want %d:\n%s", gridRows, cfg.TilesY, s)
	}
	if _, err := plan.ChipMap(cfg, w.Graph, 99); err == nil {
		t.Fatal("out-of-range segment accepted")
	}
}

// TestSecondProfilerSchedulesLikeFreshGraph: a profile belongs to its
// profiler, not to the graph it observes. A profiler attached to a graph
// that another profiler has already observed (every dynamic operator
// starved to one unit, 100 times) must schedule byte-identically to a
// profiler on a freshly built graph that saw the same warmup batches.
func TestSecondProfilerSchedulesLikeFreshGraph(t *testing.T) {
	cfg := hw.Default()
	schedule := func(g *graph.Graph, trace []workload.Batch) []byte {
		t.Helper()
		prof := profiler.New(g)
		for _, b := range trace {
			units, err := g.AssignUnits(b.Units, b.Routing)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.ObserveBatch(units, b.Routing, 1); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := Schedule(cfg, g, Adyna(), prof)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := plan.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range []string{"tutel-moe", "skipnet"} {
		var ws [2]*models.Workload
		for i := range ws {
			w, err := models.ByName(name, 64)
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		shared, fresh := ws[0].Graph, ws[1].Graph
		trace := ws[0].GenTrace(workload.NewSource(1), 8, 64)
		first := profiler.New(shared)
		starved := map[graph.OpID]int{}
		for _, id := range shared.DynamicOps() {
			starved[id] = 1
		}
		for i := 0; i < 100; i++ {
			if err := first.ObserveBatch(starved, trace[0].Routing, 1); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(schedule(shared, trace), schedule(fresh, trace)) {
			t.Fatalf("%s: the second profiler on an observed graph schedules differently from a fresh graph", name)
		}
	}
}
