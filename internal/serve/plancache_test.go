package serve

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/plancache"
	"repro/internal/workload"
)

// driftConfig is an aggressive-threshold serving setup that re-schedules
// often: the regime the plan cache is built for.
func driftConfig(model string) Config {
	cfg := quickConfig(model)
	cfg.DriftThreshold = 0.005
	cfg.CheckEvery = 4
	cfg.CooldownBatches = 8
	return cfg
}

func driftSource() Source {
	return NewSynthetic(800, 28_000, 13, workload.NewDrift(1, 0.25, 2.5, 0.12))
}

// TestPlanCacheExactHitByteIdentical is the correctness acceptance check:
// exact-hit serving must be indistinguishable from solving fresh. A cold
// cached run populates the cache while producing the exact outcome log of an
// uncached server; handing the warm cache to a second identical run turns the
// same re-plans into exact hits — and the outcomes still match byte for byte,
// at GOMAXPROCS 1 and 4 (run under -race in CI).
func TestPlanCacheExactHitByteIdentical(t *testing.T) {
	base := driftConfig("moe")
	uncached := mustServe(t, base, driftSource())
	if uncached.Reschedules == 0 {
		t.Fatal("drift never triggered a re-plan; the scenario exercises nothing")
	}

	cold := base
	cold.PlanCache = true // exact-only: no nearest matching, no AOT, no miss charge
	srv, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	repCold, err := srv.Serve(driftSource())
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "cold cached vs uncached", repCold, uncached)
	if repCold.PlanCacheMisses == 0 {
		t.Fatal("cold run recorded no cache misses")
	}

	warm := base
	warm.SharedPlanCache = srv.PlanCache()
	run := func(procs int) *Report {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return mustServe(t, warm, driftSource())
	}
	for _, procs := range []int{1, 4} {
		rep := run(procs)
		sameOutcomes(t, "warm cached vs uncached", rep, uncached)
		if rep.PlanCacheExact == 0 {
			t.Fatalf("warm run at GOMAXPROCS %d served no exact hits", procs)
		}
		if rep.PlanCacheNearest != 0 {
			t.Fatalf("nearest hits %d with nearest matching disabled", rep.PlanCacheNearest)
		}
	}
}

func sameOutcomes(t *testing.T, what string, a, b *Report) {
	t.Helper()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: outcome logs differ in length: %d vs %d", what, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("%s: outcome %d differs: %+v vs %+v", what, i, a.Outcomes[i], b.Outcomes[i])
		}
	}
	if a.FinalCycles != b.FinalCycles || a.Reschedules != b.Reschedules {
		t.Fatalf("%s: report-level divergence: cycles %d vs %d, reschedules %d vs %d",
			what, a.FinalCycles, b.FinalCycles, a.Reschedules, b.Reschedules)
	}
}

// TestPlanCacheBeatsUncachedUnderFastDrift is the headline acceptance check:
// once the host scheduler's solve latency is charged honestly into virtual
// time, an aggressive drift threshold is only affordable with the cache. Same
// arrivals, same seed, same threshold: the cached server must achieve lower
// p99 latency than the uncached one, because its re-plans dispatch instead of
// stalling the machine for the solve.
func TestPlanCacheBeatsUncachedUnderFastDrift(t *testing.T) {
	base := driftConfig("moe")
	base.HostReschedCycles = 2_000_000

	cached := base
	cached.PlanCache = true
	cached.PlanCacheNearest = true
	cached.PlanCacheAOT = true
	on := mustServe(t, cached, driftSource())
	off := mustServe(t, base, driftSource())

	t.Logf("cached:   p50=%.0f p99=%.0f missed=%d reschedules=%d hits=%d+%d/%d hostsolve=%d",
		on.Latency.P50, on.Latency.P99, on.Missed, on.Reschedules,
		on.PlanCacheExact, on.PlanCacheNearest,
		on.PlanCacheExact+on.PlanCacheNearest+on.PlanCacheMisses, on.HostSolveCycles)
	t.Logf("uncached: p50=%.0f p99=%.0f missed=%d reschedules=%d hostsolve=%d",
		off.Latency.P50, off.Latency.P99, off.Missed, off.Reschedules, off.HostSolveCycles)

	if off.Reschedules == 0 {
		t.Fatal("uncached run never re-planned; the scenario exercises nothing")
	}
	if on.PlanCacheExact+on.PlanCacheNearest == 0 {
		t.Fatal("cached run served no cache hits")
	}
	if on.HostSolveCycles >= off.HostSolveCycles {
		t.Fatalf("cached run paid %d host solve cycles, uncached %d — cache saved nothing",
			on.HostSolveCycles, off.HostSolveCycles)
	}
	if on.Latency.P99 >= off.Latency.P99 {
		t.Errorf("cached p99 %.0f not lower than uncached %.0f", on.Latency.P99, off.Latency.P99)
	}
}

// TestPlanCacheAOTSeedsEntries checks bring-up precompute: a cache-enabled
// server under a fault schedule starts with the bring-up plan plus one AOT
// plan per distinct degraded config the schedule will produce, and the
// snapshot exposes the cache gauges.
func TestPlanCacheAOTSeedsEntries(t *testing.T) {
	cfg := driftConfig("moe")
	cfg.PlanCache = true
	cfg.PlanCacheAOT = true
	// An hbm window, then a permanent loss: two degraded configs (the chip
	// between them is the healthy bring-up config).
	fs, err := faults.ParseSpec("hbm@1e6:factor=0.5,until=2e6;fail@3e6:tiles=0-7")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.PlanCacheStats()
	if st.AOTEntries != 2 || st.Entries != 3 {
		t.Fatalf("AOT bring-up produced %d entries (%d AOT), want the seed plan plus 2 degraded configs", st.Entries, st.AOTEntries)
	}
	snap := s.Snapshot()
	if snap.Gauges["plan_cache_entries"] != float64(st.Entries) {
		t.Fatalf("snapshot gauge %v != stats entries %d", snap.Gauges["plan_cache_entries"], st.Entries)
	}
	if _, ok := snap.Counters["plan_cache_exact_hits"]; !ok {
		t.Fatal("snapshot missing plan_cache_exact_hits counter")
	}
}

// TestPlanCacheAOTWithoutFaultsIsANoOp pins what AOT precompute covers: only
// the fault schedule's degraded configs. With no schedule, bring-up stores
// nothing beyond the seed plan, and a drifting, re-planning stream serves the
// same outcome log as with AOT off.
func TestPlanCacheAOTWithoutFaultsIsANoOp(t *testing.T) {
	base := driftConfig("moe")
	base.HostReschedCycles = 2_000_000
	base.PlanCache = true
	base.PlanCacheNearest = true

	aot := base
	aot.PlanCacheAOT = true
	s, err := New(aot)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.PlanCacheStats(); st.AOTEntries != 0 || st.Entries != 1 {
		t.Fatalf("AOT bring-up without faults produced %d entries (%d AOT), want only the seed plan", st.Entries, st.AOTEntries)
	}
	on, err := s.Serve(driftSource())
	if err != nil {
		t.Fatal(err)
	}
	off := mustServe(t, base, driftSource())
	if off.Reschedules == 0 {
		t.Fatal("drift never triggered a re-plan; the scenario exercises nothing")
	}
	sameOutcomes(t, "AOT on vs off without faults", on, off)
}

// TestAOTBringupCompilesEachKernelOnce is the compile memo's counter guard:
// a moe AOT bring-up — the bring-up solve plus every degraded-config solve of
// the fault schedule — runs exactly one blocking search per distinct kernel
// key, all through the bring-up's compiler, and the tile-loss solve already
// hits kernels of the live solve: re-running the same precompute into an
// empty cache is served entirely from the memo and searches nothing.
func TestAOTBringupCompilesEachKernelOnce(t *testing.T) {
	cfg := driftConfig("moe")
	cfg.PlanCache = true
	cfg.PlanCacheAOT = true
	fs, err := faults.ParseSpec("hbm@1e6:factor=0.5,until=2e6;fail@3e6:tiles=0-7")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup := s.Setup()
	lookups, searches := setup.Comp.Stats()
	if searches == 0 || searches != int64(setup.Comp.Len()) {
		t.Fatalf("bring-up ran %d blocking searches for %d distinct kernels", searches, setup.Comp.Len())
	}
	// A blocking search reads neither the failed-tile mask nor the NoC
	// and HBM derates, so the derated and the 8-tile loss's solves find
	// searches the live solve already ran.
	if searches >= lookups {
		t.Fatalf("bring-up ran %d blocking searches for %d kernel lookups, want memo hits", searches, lookups)
	}
	st := s.PlanCacheStats()
	if st.AOTEntries == 0 {
		t.Fatal("AOT bring-up stored no plans")
	}
	again := plancache.New(s.PlanCache().Keyer(), plancache.Config{})
	added := again.Precompute(cfg.RC.HW, setup.Comp, setup.Policy, setup.M.Profiler(), cfg.Faults)
	if added != st.AOTEntries {
		t.Fatalf("re-run precompute added %d plans, bring-up %d", added, st.AOTEntries)
	}
	afterLookups, afterSearches := setup.Comp.Stats()
	if afterSearches != searches {
		t.Fatalf("re-running the bring-up's precompute ran %d more blocking searches, want 0", afterSearches-searches)
	}
	if afterLookups <= lookups {
		t.Fatalf("re-run precompute looked up no kernels (%d before, %d after)", lookups, afterLookups)
	}
}

// TestAOTHBMWindowSearchesNothingNew: the HBM rate only chooses between a
// blocking search's candidates, so a moe AOT bring-up whose fault schedule
// holds only an HBM window solves its derated plan from the healthy solve's
// searches and runs no blocking search of its own.
func TestAOTHBMWindowSearchesNothingNew(t *testing.T) {
	searches := func(spec string) (int64, int) {
		cfg := driftConfig("moe")
		cfg.PlanCache = true
		cfg.PlanCacheAOT = true
		if spec != "" {
			fs, err := faults.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = fs
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, n := s.Setup().Comp.Stats()
		return n, s.PlanCacheStats().AOTEntries
	}
	healthy, _ := searches("")
	windowed, plans := searches("hbm@1e6:factor=0.5,until=2e6")
	if plans == 0 {
		t.Fatal("the HBM window stored no AOT plan; the check compares nothing")
	}
	if windowed != healthy {
		t.Fatalf("AOT bring-up with an HBM window ran %d blocking searches, the healthy one %d", windowed, healthy)
	}
}
