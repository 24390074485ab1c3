package models

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/profiler"
	"repro/internal/workload"
)

func TestAllModelsBuildAndValidate(t *testing.T) {
	ws, err := All(DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 5 {
		t.Fatalf("want the 5 workloads of Table I, got %d", len(ws))
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if len(w.Graph.Switches()) == 0 {
				t.Fatal("every DynNN must contain a switch")
			}
			if len(w.Graph.DynamicOps()) == 0 {
				t.Fatal("every DynNN must contain dynamic operators")
			}
			src := workload.NewSource(7)
			trace := w.GenTrace(src, 10, DefaultBatchSize)
			if err := workload.Validate(w.Graph, trace, w.Exclusive); err != nil {
				t.Fatalf("generated trace invalid: %v", err)
			}
			// Unit assignment works for every batch.
			for _, b := range trace {
				units, err := w.Graph.AssignUnits(b.Units, b.Routing)
				if err != nil {
					t.Fatalf("batch %d: %v", b.Index, err)
				}
				for id, u := range units {
					op := w.Graph.Op(id)
					if u < 0 || u > op.MaxUnits {
						t.Fatalf("op %s units %d outside [0,%d]", op.Name, u, op.MaxUnits)
					}
				}
			}
		})
	}
}

func TestTraceGenerationDeterministic(t *testing.T) {
	for _, name := range Names() {
		w1, err := ByName(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		w2, _ := ByName(name, 32)
		t1 := w1.GenTrace(workload.NewSource(99), 5, 32)
		t2 := w2.GenTrace(workload.NewSource(99), 5, 32)
		for i := range t1 {
			for sw, r1 := range t1[i].Routing {
				r2 := t2[i].Routing[sw]
				if len(r1.Branch) != len(r2.Branch) {
					t.Fatalf("%s batch %d: branch count differs", name, i)
				}
				for k := range r1.Branch {
					if len(r1.Branch[k]) != len(r2.Branch[k]) {
						t.Fatalf("%s batch %d sw %d: branch %d size differs", name, i, sw, k)
					}
					for j := range r1.Branch[k] {
						if r1.Branch[k][j] != r2.Branch[k][j] {
							t.Fatalf("%s: traces diverge", name)
						}
					}
				}
			}
		}
	}
}

func TestSkipNetMatchesFigure6Statistics(t *testing.T) {
	w, err := SkipNet(8)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(1)
	trace := w.GenTrace(src, 400, 8)
	sw := w.Graph.Switches()[0]
	var b1Total, n int
	for _, b := range trace {
		b1Total += len(b.Routing[sw].Branch[0])
		n++
	}
	avg := float64(b1Total) / float64(n)
	// Paper: on average 5.03 of 8 samples take B1. Allow generous slack for
	// the synthetic generator.
	if avg < 3.5 || avg > 6.5 {
		t.Fatalf("B1 average %v out of the paper's ballpark (5.03/8)", avg)
	}
}

func TestPABEEExitsAreNested(t *testing.T) {
	w, err := PABEE(16)
	if err != nil {
		t.Fatal(err)
	}
	sws := w.Graph.Switches()
	if len(sws) != pabeeLayers-1 {
		t.Fatalf("PABEE has %d switches, want %d", len(sws), pabeeLayers-1)
	}
	// Each later switch must be nested under the previous one.
	for i := 1; i < len(sws); i++ {
		op := w.Graph.Op(sws[i])
		if op.SwitchOf != sws[i-1] {
			t.Fatalf("switch %d not nested under switch %d", i, i-1)
		}
	}
	// Population must shrink monotonically through the layers.
	src := workload.NewSource(5)
	b := w.GenTrace(src, 1, 16)[0]
	prev := 16
	for _, sw := range sws {
		r := b.Routing[sw]
		arrived := len(r.Branch[0]) + len(r.Branch[1])
		if arrived > prev {
			t.Fatalf("population grew: %d -> %d", prev, arrived)
		}
		prev = len(r.Branch[1])
	}
}

func TestFBSNetSkew(t *testing.T) {
	w, err := FBSNet(64)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(3)
	trace := w.GenTrace(src, 100, 64)
	sw := w.Graph.Switches()[0]
	counts := make([]int, fbsGroups)
	for _, b := range trace {
		for g, idxs := range b.Routing[sw].Branch {
			counts[g] += len(idxs)
		}
	}
	if counts[0] < 3*counts[fbsGroups-1] {
		t.Fatalf("channel-group loads not skewed enough: %v", counts)
	}
	// The rarest group should be activated well under half as often as the
	// most popular — the precondition for branch grouping to matter.
	if counts[fbsGroups-1] == 0 {
		t.Log("rarest group never activated (extreme skew), still valid")
	}
}

func TestMoETopKBroadcast(t *testing.T) {
	w, err := TutelMoE(32)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(8)
	b := w.GenTrace(src, 1, 32)[0]
	sw := w.Graph.Switches()[0]
	total := 0
	for _, idxs := range b.Routing[sw].Branch {
		total += len(idxs)
	}
	if total != 32*moeTopK {
		t.Fatalf("top-%d routing slots = %d, want %d", moeTopK, total, 32*moeTopK)
	}
}

// TestMoENextAllocatesOnlyItsRouting bounds the moe generator's allocations
// by the routing it returns: a twin generator's routings, rebuilt by
// appending the same indices in the same order, cost as many allocations as
// Next may. Gate weights and per-sample top-k draws must come from scratch.
// Next also lays each layer's branches into one backing array, so its count
// is bounded outright: the branch table and the backing array per switch,
// plus the routing map.
func TestMoENextAllocatesOnlyItsRouting(t *testing.T) {
	const units, runs = 32, 50
	gen := func() (workload.TraceGen, *workload.Source) {
		w, err := TutelMoE(units)
		if err != nil {
			t.Fatal(err)
		}
		return w.Gen, workload.NewSource(3)
	}
	// AllocsPerRun makes one warm-up call before its runs.
	twin, twinSrc := gen()
	want := make([]graph.BatchRouting, runs+1)
	for i := range want {
		want[i] = twin.Next(twinSrc, units)
	}
	k := 0
	var out graph.BatchRouting // rebuilt routings escape, as Next's do
	rebuilt := testing.AllocsPerRun(runs, func() {
		rt := graph.BatchRouting{}
		for sw, r := range want[k] {
			branches := make([][]int, len(r.Branch))
			for e, idxs := range r.Branch {
				for _, i := range idxs {
					branches[e] = append(branches[e], i)
				}
			}
			rt[sw] = graph.Routing{Branch: branches}
		}
		out = rt
		k++
	})
	_ = out
	g, src := gen()
	next := testing.AllocsPerRun(runs, func() { g.Next(src, units) })
	if next > rebuilt {
		t.Fatalf("moe Next allocates %.0f per call, its routing only %.0f", next, rebuilt)
	}
	if limit := float64(2*moeLayers + 2); next > limit {
		t.Fatalf("moe Next allocates %.0f per call, want <= %.0f (2 per switch + 2)", next, limit)
	}
}

// The branches of one layer share a backing array; an append to one branch
// must not overwrite its neighbour's samples.
func TestMoEBranchesAreCapped(t *testing.T) {
	w, err := TutelMoE(32)
	if err != nil {
		t.Fatal(err)
	}
	rt := w.Gen.Next(workload.NewSource(3), 32)
	for sw, r := range rt {
		want := make([][]int, len(r.Branch))
		for e, b := range r.Branch {
			want[e] = slices.Clone(b)
		}
		for e := range r.Branch {
			_ = append(r.Branch[e], -1)
			if !reflect.DeepEqual(r.Branch, want) {
				t.Fatalf("switch %d: an append to expert %d's branch changed the routing: %v, was %v", sw, e, r.Branch, want)
			}
		}
	}
}

func TestDPSNetFoldsPatches(t *testing.T) {
	w, err := DPSNet(128)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: dyn_dim up to 8192 for DPSNet at batch 128.
	if got := w.BatchUnits(128); got != 8192 {
		t.Fatalf("batch units = %d, want 8192", got)
	}
	src := workload.NewSource(4)
	b := w.GenTrace(src, 1, 128)[0]
	sw := w.Graph.Switches()[0]
	keep := len(b.Routing[sw].Branch[0])
	drop := len(b.Routing[sw].Branch[1])
	if keep+drop != 8192 {
		t.Fatalf("keep %d + drop %d != 8192", keep, drop)
	}
	if keep == 0 || drop == 0 {
		t.Fatal("both kept and dropped patches expected")
	}
}

func TestAdaViTHybridBuilds(t *testing.T) {
	w, err := AdaViT(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Graph.Switches()) != adaLayers+1 {
		t.Fatalf("adavit switches = %d, want %d", len(w.Graph.Switches()), adaLayers+1)
	}
	src := workload.NewSource(2)
	trace := w.GenTrace(src, 5, 32)
	if err := workload.Validate(w.Graph, trace, false); err != nil {
		t.Fatalf("adavit trace invalid: %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, err := ByName(name, 8); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope", 8); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := ByName("moe", 8); err != nil {
		t.Error("alias moe rejected")
	}
}

func TestBadBatchRejected(t *testing.T) {
	for _, ctor := range []func(int) (*Workload, error){SkipNet, PABEE, FBSNet, TutelMoE, DPSNet, AdaViT} {
		if _, err := ctor(0); err == nil {
			t.Error("batch 0 accepted")
		}
	}
}

func TestWorkloadScaleIsPlausible(t *testing.T) {
	// Sanity-check the MAC scale of the backbones: SkipNet (ResNet-like)
	// should cost a few GMACs per sample worst case; PABEE (BERT-base,
	// seq 128) tens of GMACs per batch unit.
	w, _ := SkipNet(1)
	macs := w.Graph.MaxMACsPerBatch()
	if macs < 1e9 || macs > 2e10 {
		t.Fatalf("SkipNet worst case %d MACs/sample implausible", macs)
	}
	p, _ := PABEE(1)
	pm := p.Graph.MaxMACsPerBatch()
	if pm < 5e9 || pm > 1e11 {
		t.Fatalf("PABEE worst case %d MACs/sample implausible", pm)
	}
}

func TestFrequencyTablesObserveTrace(t *testing.T) {
	// Feeding assigned units into the frequency tables (what the hardware
	// profiler does) must line up with the tables' max bounds.
	w, err := SkipNet(16)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(6)
	trace := w.GenTrace(src, 20, 16)
	prof := profiler.New(w.Graph)
	for _, b := range trace {
		units, err := w.Graph.AssignUnits(b.Units, b.Routing)
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.ObserveBatch(units, b.Routing, b.Density); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range w.Graph.DynamicOps() {
		op, f := w.Graph.Op(id), prof.Freq(id)
		if f.Total() != 20 {
			t.Fatalf("op %s observed %d batches, want 20", op.Name, f.Total())
		}
		if f.Expectation() > float64(op.MaxUnits) {
			t.Fatalf("op %s expectation above max", op.Name)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	w, err := DPSNet(128)
	if err != nil {
		b.Fatal(err)
	}
	src := workload.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Gen.Next(src, w.BatchUnits(128))
	}
}

func TestRANetExtension(t *testing.T) {
	w, err := RANet(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Graph.Switches()) != 1 {
		t.Fatalf("switches = %d", len(w.Graph.Switches()))
	}
	src := workload.NewSource(4)
	trace := w.GenTrace(src, 20, 32)
	if err := workload.Validate(w.Graph, trace, true); err != nil {
		t.Fatal(err)
	}
	// Branch costs differ strongly: the hard (224px) branch must cost
	// several times the easy (112px) one per unit.
	sw := w.Graph.Switches()[0]
	heads := w.Graph.Op(sw).Outputs
	easy := w.Graph.Op(heads[0])
	hard := w.Graph.Op(heads[2])
	if hard.MACsPerUnit < 3*easy.MACsPerUnit {
		t.Fatalf("resolution branches not asymmetric enough: %d vs %d",
			hard.MACsPerUnit, easy.MACsPerUnit)
	}
	// Easy branch dominates the routing on average.
	var easyN, hardN int
	for _, b := range trace {
		easyN += len(b.Routing[sw].Branch[0])
		hardN += len(b.Routing[sw].Branch[2])
	}
	if easyN <= hardN {
		t.Fatalf("difficulty distribution inverted: easy %d vs hard %d", easyN, hardN)
	}
}

func TestRANetByName(t *testing.T) {
	if _, err := ByName("ranet", 8); err != nil {
		t.Fatal(err)
	}
}
