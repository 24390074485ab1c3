package core

import (
	"bytes"
	"testing"

	"repro/internal/models"
	"repro/internal/runner"
	"repro/internal/sched"
)

func quickRC() RunConfig {
	rc := DefaultRunConfig()
	rc.Batch = 32
	rc.Batches = 16
	rc.Warmup = 8
	return rc
}

func TestRunAllDesignsOneModel(t *testing.T) {
	rc := quickRC()
	res, err := RunAll(Figure9Designs(), "skipnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("want 6 designs, got %d", len(res))
	}
	for d, r := range res {
		if r.Cycles <= 0 || r.Batches != rc.Batches {
			t.Fatalf("%s: bad result %+v", d, r)
		}
	}
	// The evaluation's core ordering at small scale: GPU slowest, Adyna
	// faster than M-tile, full-kernel at least as fast as Adyna(static).
	if res[DesignGPU].CyclesPerBatch() <= res[DesignMTile].CyclesPerBatch() {
		t.Fatal("GPU must be the slowest design")
	}
	if res[DesignAdyna].CyclesPerBatch() >= res[DesignMTile].CyclesPerBatch() {
		t.Fatal("Adyna must beat M-tile")
	}
	if res[DesignFullKernel].CyclesPerBatch() > res[DesignAdynaStatic].CyclesPerBatch()*101/100 {
		t.Fatal("full-kernel must not lose to Adyna(static)")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	rc := quickRC()
	a, err := Run(DesignAdyna, "pabee", rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DesignAdyna, "pabee", rc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.MACs != b.MACs {
		t.Fatalf("same seed must reproduce: %+v vs %+v", a, b)
	}
	rc2 := rc
	rc2.Seed = 99
	c, err := Run(DesignAdyna, "pabee", rc2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles {
		t.Fatal("different seeds should differ")
	}
}

func TestRunValidation(t *testing.T) {
	rc := quickRC()
	rc.Batch = 0
	if _, err := Run(DesignAdyna, "skipnet", rc); err == nil {
		t.Fatal("zero batch accepted")
	}
	rc = quickRC()
	if _, err := Run(DesignAdyna, "nope", rc); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Run(Design("weird"), "skipnet", rc); err == nil {
		t.Fatal("unknown design accepted")
	}
	rc.Warmup = -1
	if _, err := Run(DesignAdyna, "skipnet", rc); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestRunWithPeriodChargesReconfigs(t *testing.T) {
	rc := quickRC()
	r, err := RunWithPolicy(DesignAdyna, "skipnet", rc, func(p *sched.Policy) { p.ResamplePeriod = 4 })
	if err != nil {
		t.Fatal(err)
	}
	if r.ReconfigCycles <= 0 {
		t.Fatal("frequent rescheduling must charge reconfiguration cycles")
	}
}

func TestRunWithBudgetDegradesGracefully(t *testing.T) {
	rc := quickRC()
	one, err := RunWithPolicy(DesignAdyna, "dpsnet", rc, func(p *sched.Policy) { p.KernelBudget = 1 })
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunWithPolicy(DesignAdyna, "dpsnet", rc, func(p *sched.Policy) { p.KernelBudget = 33 })
	if err != nil {
		t.Fatal(err)
	}
	if full.CyclesPerBatch() > one.CyclesPerBatch() {
		t.Fatalf("more kernels must not slow execution: %0.f vs %0.f",
			full.CyclesPerBatch(), one.CyclesPerBatch())
	}
}

func TestRunWithPolicyOverride(t *testing.T) {
	rc := quickRC()
	r, err := RunWithPolicy(DesignAdyna, "skipnet", rc, func(p *sched.Policy) {
		p.TileSharing = false
		p.BranchGrouping = false
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatal("override run failed")
	}
}

func TestRealtimeDesignSlowsWithLatency(t *testing.T) {
	rc := quickRC()
	fast, err := Run(DesignRealtime, "skipnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.OnlineSchedCycles = 200_000
	slow, err := Run(DesignRealtime, "skipnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	if slow.CyclesPerBatch() <= fast.CyclesPerBatch() {
		t.Fatal("online scheduling latency must cost time")
	}
}

func meanOf(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Regression: BatchLatencies used to drop rc.OnlineSchedCycles on the floor
// for the real-time design (unlike run()), so latency measurements showed
// the real-time alternative with a free scheduler.
func TestBatchLatenciesRealtimeChargesSchedLatency(t *testing.T) {
	rc := quickRC()
	rc.OnlineSchedCycles = 390_000 // 0.39 ms at 1 GHz
	ad, err := BatchLatencies(DesignAdyna, "skipnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BatchLatencies(DesignRealtime, "skipnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ad) == 0 || len(rt) == 0 {
		t.Fatalf("empty latencies: adyna %d, realtime %d", len(ad), len(rt))
	}
	if meanOf(rt) <= meanOf(ad) {
		t.Fatalf("real-time with %d sched cycles must exceed Adyna latencies: %f vs %f",
			rc.OnlineSchedCycles, meanOf(rt), meanOf(ad))
	}
	// And the inflation must come from the scheduling latency itself.
	rc0 := quickRC()
	rt0, err := BatchLatencies(DesignRealtime, "skipnet", rc0)
	if err != nil {
		t.Fatal(err)
	}
	if meanOf(rt) <= meanOf(rt0) {
		t.Fatalf("sched latency must inflate real-time latencies: %f vs %f", meanOf(rt), meanOf(rt0))
	}
}

// RunJobs dispatches trace-major, so jobs that interleave two models run in
// a different order from the one they were listed in; the results still
// come back in job order and match the sequential path.
func TestRunJobsMatchesSerial(t *testing.T) {
	rc := quickRC()
	rc.Batches = 8
	var jobs []Job
	for _, d := range Figure9Designs() {
		for _, model := range []string{"fbsnet", "skipnet"} {
			jobs = append(jobs, Job{Design: d, Model: model, RC: rc})
		}
	}
	serial, err := RunJobs(runner.Serial, jobs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunJobs(6, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if serial[i].Design != string(j.Design) || serial[i] != par[i] {
			t.Fatalf("job %d (%s on %s): serial %+v vs parallel %+v", i, j.Design, j.Model, serial[i], par[i])
		}
	}
	if serial[0].Model == serial[1].Model {
		t.Fatal("results not in job order: jobs 0 and 1 run different models")
	}
}

func TestAllModelsRunAdyna(t *testing.T) {
	rc := quickRC()
	rc.Batches = 8
	for _, name := range models.Names() {
		if _, err := Run(DesignAdyna, name, rc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestExtensionModelsRun(t *testing.T) {
	rc := quickRC()
	rc.Batches = 6
	for _, name := range []string{"adavit", "ranet"} {
		mt, err := Run(DesignMTile, name, rc)
		if err != nil {
			t.Fatalf("%s mtile: %v", name, err)
		}
		ad, err := Run(DesignAdyna, name, rc)
		if err != nil {
			t.Fatalf("%s adyna: %v", name, err)
		}
		if ad.SpeedupOver(mt) <= 1 {
			t.Fatalf("%s: Adyna should win, got %.2fx", name, ad.SpeedupOver(mt))
		}
	}
}

// TestBringupOnSharesCompiler checks the one way to bring up on a given
// compiler: the session runs the compiler's graph, solves the plan a fresh
// bring-up solves, and a compiler for another model or batch size is
// rejected.
func TestBringupOnSharesCompiler(t *testing.T) {
	rc := quickRC()
	first, err := Bringup(DesignAdyna, "moe", rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc2 := rc
	rc2.Seed = 2
	rc2.HW.HBMDerate = 0.5
	shared, err := BringupOn(first.Comp, DesignAdyna, "moe", rc2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Comp != first.Comp || shared.W.Graph != first.W.Graph {
		t.Fatal("BringupOn did not keep the compiler and its graph")
	}
	fresh, err := Bringup(DesignAdyna, "moe", rc2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := shared.Plan.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Plan.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("a bring-up on a shared compiler solved a different plan")
	}
	other := rc
	other.Batch = 16
	if _, err := BringupOn(first.Comp, DesignAdyna, "moe", other, nil); err == nil {
		t.Fatal("compiler for batch 32 accepted at batch 16")
	}
	if _, err := BringupOn(first.Comp, DesignAdyna, "skipnet", rc, nil); err == nil {
		t.Fatal("moe compiler accepted for skipnet")
	}
}
