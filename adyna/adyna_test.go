package adyna_test

import (
	"testing"

	"repro/adyna"
)

// TestPublicAPIEndToEnd exercises the full public surface the way a
// downstream user would: build a custom DynNN, run it functionally, load a
// paper workload, schedule, simulate, and compare designs.
func TestPublicAPIEndToEnd(t *testing.T) {
	// Custom graph through the builder.
	b := adyna.NewGraphBuilder("api-test", 1)
	in := b.Input("in", 128, 8)
	gate := b.Gate("gate", in, 64, 2)
	br := b.Switch("sw", in, gate, 2)
	x := b.MatMul("fast", br[0], 64, 64)
	y1 := b.MatMul("slow1", br[1], 64, 64)
	y2 := b.MatMul("slow2", y1, 64, 64)
	m := b.Merge("merge", br, x, y2)
	b.Output("out", m)
	ident := func(ins []*adyna.Tensor) (*adyna.Tensor, error) { return ins[0].Clone(), nil }
	b.SetRef(gate, ident)
	b.SetRef(x, ident)
	b.SetRef(y1, ident)
	b.SetRef(y2, ident)
	b.SetRef(m, ident)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Functional execution.
	input := adyna.NewTensor(8, 64)
	for i := range input.Data {
		input.Data[i] = float32(i)
	}
	rt := adyna.BatchRouting{{Branch: [][]int32{{0, 2, 4, 6}, {1, 3, 5, 7}}}}
	res, err := g.Execute(input, rt)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[g.Outputs()[0]]
	for i := range input.Data {
		if out.Data[i] != input.Data[i] {
			t.Fatal("identity network must reproduce its input through routing")
		}
	}

	// Scheduling and simulation of a paper workload.
	cfg := adyna.DefaultConfig()
	w, err := adyna.LoadModel("skipnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := adyna.NewMachine(cfg, w.Graph, adyna.MachineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adyna.Schedule(cfg, w.Graph, adyna.PolicyAdyna(), mach.Profiler())
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	src := adyna.NewSource(1)
	if err := mach.Run(w.GenTrace(src, 3, 16)); err != nil {
		t.Fatal(err)
	}
	if mach.Stats().Cycles <= 0 {
		t.Fatal("simulation produced no time")
	}
}

func TestPublicRunComparison(t *testing.T) {
	rc := adyna.DefaultRunConfig()
	rc.Batch = 16
	rc.Batches = 8
	rc.Warmup = 4
	res, err := adyna.RunAll([]adyna.Design{adyna.DesignMTile, adyna.DesignAdyna}, "dpsnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	ad, mt := res[adyna.DesignAdyna], res[adyna.DesignMTile]
	if ad.SpeedupOver(mt) <= 1 {
		t.Fatalf("Adyna should beat M-tile on DPSNet, got %.2fx", ad.SpeedupOver(mt))
	}
	e := adyna.EnergyOf(ad)
	if e.Total() <= 0 {
		t.Fatal("energy must be positive")
	}
	h, s, p := e.Share()
	if h+s+p < 0.99 {
		t.Fatal("energy shares must sum to 1")
	}
}

func TestModelsListed(t *testing.T) {
	names := adyna.Models()
	if len(names) != 5 {
		t.Fatalf("want the 5 Table I workloads, got %v", names)
	}
	for _, n := range names {
		if _, err := adyna.LoadModel(n, 4); err != nil {
			t.Errorf("LoadModel(%q): %v", n, err)
		}
	}
}

func TestKernelBudgetAPI(t *testing.T) {
	rc := adyna.DefaultRunConfig()
	rc.Batch = 16
	rc.Batches = 6
	rc.Warmup = 4
	r, err := adyna.RunWithKernelBudget(adyna.DesignAdyna, "dpsnet", rc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatal("budgeted run failed")
	}
}

func TestGeomean(t *testing.T) {
	if got := adyna.Geomean([]float64{2, 8}); got != 4 {
		t.Fatalf("geomean = %v, want 4", got)
	}
}
