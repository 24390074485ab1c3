package mtserve

import (
	"runtime"
	"testing"

	"repro/internal/faults"
)

// cachedConfig is the headline three-tenant contention scenario with the
// plan-variant cache switched on.
func cachedConfig(mode Mode) Config {
	cfg := headlineConfig(mode)
	cfg.Tenants[0].Requests = 700
	cfg.Tenants[1].Requests = 420
	cfg.Tenants[2].Requests = 260
	cfg.PlanCache = true
	cfg.PlanCacheNearest = true
	cfg.PlanCacheAOT = true
	// The nearest budget must exceed the drift threshold (0.06 here), or
	// every drift-triggered re-plan is already outside it by construction.
	cfg.PlanCacheMaxDist = 0.12
	// A recurring HBM brownout: the second window re-plans at capability
	// compositions the first window already solved (and AOT pre-solved the
	// strike capability at bring-up) — the cache's recurring-window case.
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 2_500_000, Until: 5_500_000, Kind: faults.HBMDegrade, Factor: 0.55},
		{At: 12_000_000, Until: 15_000_000, Kind: faults.HBMDegrade, Factor: 0.55},
	}}
	return cfg
}

// TestRepartitionServesCacheHits pins the multi-tenant acceptance criterion:
// under the three-tenant repartitioning scenario the per-tenant plan caches
// serve a nonzero number of hits — tiles move, tenants return to partitions
// they have held before, and those re-plans dispatch instead of solving.
func TestRepartitionServesCacheHits(t *testing.T) {
	rep := mustServe(t, cachedConfig(ModeRepartition))
	hits := rep.PlanCacheExact + rep.PlanCacheNearest
	t.Logf("repartitions=%d reschedules=%d plan-cache=%d/%d",
		rep.Repartitions, rep.Reschedules, hits, hits+rep.PlanCacheMisses)
	if rep.Repartitions == 0 {
		t.Fatal("repartition mode never moved a tile; the scenario exercises nothing")
	}
	if hits == 0 {
		t.Fatalf("no plan-cache hits across %d re-plans", hits+rep.PlanCacheMisses)
	}
	for _, tr := range rep.Tenants {
		if tr.Served+tr.Missed+tr.Shed != tr.Requests {
			t.Errorf("%s: served %d + missed %d + shed %d != requests %d",
				tr.Name, tr.Served, tr.Missed, tr.Shed, tr.Requests)
		}
	}
}

// TestCachedRepartitionDeterministic re-runs the cached scenario at
// GOMAXPROCS 1 and 4: cache dispatch must not perturb the single-threaded
// virtual-time invariant (run under -race in CI).
func TestCachedRepartitionDeterministic(t *testing.T) {
	run := func(procs int) *Report {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return mustServe(t, cachedConfig(ModeRepartition))
	}
	serial := run(1)
	parallel := run(4)
	if serial.Counters != parallel.Counters || serial.Repartitions != parallel.Repartitions {
		t.Fatalf("cache behavior diverged across GOMAXPROCS: counters %+v vs %+v, repartitions %d vs %d",
			serial.Counters, parallel.Counters, serial.Repartitions, parallel.Repartitions)
	}
	for i := range serial.Tenants {
		a, b := serial.Tenants[i], parallel.Tenants[i]
		if len(a.Outcomes) != len(b.Outcomes) {
			t.Fatalf("%s: outcome logs differ in length", a.Name)
		}
		for j := range a.Outcomes {
			if a.Outcomes[j] != b.Outcomes[j] {
				t.Fatalf("%s: outcome %d differs: %+v vs %+v", a.Name, j, a.Outcomes[j], b.Outcomes[j])
			}
		}
	}
}
