package fleet

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// fleetBase is the small per-replica server template the fleet tests share.
func fleetBase(model string) serve.Config {
	rc := core.DefaultRunConfig()
	rc.Batch = 32
	rc.Warmup = 8
	return serve.Config{
		Model:           model,
		RC:              rc,
		MaxBatch:        32,
		SLOCycles:       50_000_000,
		QueueCapSamples: 4096,
		Reschedule:      true,
		DriftThreshold:  0.03,
		CheckEvery:      4,
		CooldownBatches: 8,
	}
}

func mustFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

func mustFleetServe(t *testing.T, cfg Config, src serve.Source) *Report {
	t.Helper()
	rep, err := mustFleet(t, cfg).Serve(src)
	if err != nil {
		t.Fatalf("fleet.Serve: %v", err)
	}
	return rep
}

// serveLog renders a replica's outcome log as bytes, for byte-identity
// comparisons across runs.
func serveLog(rep *serve.Report) []byte {
	var b bytes.Buffer
	for _, o := range rep.Outcomes {
		fmt.Fprintf(&b, "%d %d %d %d\n", o.ID, o.Arrival, o.Done, o.Outcome)
	}
	return b.Bytes()
}

// fleetLog renders the whole fleet's outcome logs, replica by replica in
// canonical order.
func fleetLog(rep *Report) []byte {
	var b bytes.Buffer
	for _, rr := range rep.Replicas {
		fmt.Fprintf(&b, "# %s\n", rr.Name)
		b.Write(serveLog(rr.Report))
	}
	return b.Bytes()
}

// checkConservation asserts every request ID in [0,n) terminates exactly once
// across the fleet.
func checkConservation(t *testing.T, rep *Report, n int) {
	t.Helper()
	if rep.Requests != n {
		t.Fatalf("fleet accounted %d of %d requests", rep.Requests, n)
	}
	if got := rep.Served + rep.Missed + rep.Shed; got != n {
		t.Fatalf("outcome counters %d don't sum to %d", got, n)
	}
	seen := make(map[int]bool, n)
	for _, rr := range rep.Replicas {
		for _, o := range rr.Report.Outcomes {
			if seen[o.ID] {
				t.Fatalf("request %d recorded twice", o.ID)
			}
			seen[o.ID] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("outcome logs hold %d distinct requests, want %d", len(seen), n)
	}
}

// TestFleetK1MatchesFleetlessServer is the fleet's noop wall: one replica,
// round-robin, an explicitly empty replica-fault schedule — the outcome log
// and final clock must be byte-identical to the plain serve.Server on the
// same stream. This pins the incremental StepTo/Enqueue session API to the
// original Serve loop's semantics.
func TestFleetK1MatchesFleetlessServer(t *testing.T) {
	base := fleetBase("skipnet")
	base.PlanCache = true
	mix := MixConfig{Model: "skipnet", Classes: 2, Requests: 250, Samples: 8, MeanGapCycles: 60_000, Seed: 5}
	src1, err := NewMixSource(mix)
	if err != nil {
		t.Fatalf("NewMixSource: %v", err)
	}
	src2, _ := NewMixSource(mix)

	frep := mustFleetServe(t, Config{
		Base:          base,
		Replicas:      HomogeneousSpecs(1, base.RC.HW),
		Policy:        PolicyRR,
		ReplicaFaults: &faults.Schedule{},
	}, src1)

	srv, err := serve.New(base)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	srep, err := srv.Serve(src2)
	if err != nil {
		t.Fatalf("serve.Serve: %v", err)
	}

	checkConservation(t, frep, mix.Requests)
	if len(frep.Replicas) != 1 {
		t.Fatalf("got %d replica reports, want 1", len(frep.Replicas))
	}
	if !bytes.Equal(serveLog(frep.Replicas[0].Report), serveLog(srep)) {
		t.Fatalf("K=1 fleet outcome log diverged from fleetless server:\nfleet:\n%s\nfleetless:\n%s",
			serveLog(frep.Replicas[0].Report), serveLog(srep))
	}
	if frep.FinalCycles != srep.FinalCycles {
		t.Fatalf("K=1 fleet final clock %d != fleetless %d", frep.FinalCycles, srep.FinalCycles)
	}
	if frep.Batches != srep.Batches || frep.Reschedules != srep.Reschedules {
		t.Fatalf("K=1 fleet counters (batches %d, replans %d) != fleetless (%d, %d)",
			frep.Batches, frep.Reschedules, srep.Batches, srep.Reschedules)
	}
}

// headlineMix is the drifting multi-model arrival mix the three-policy
// comparison serves: three traffic classes over disjoint branch populations,
// mixture weights random-walking request to request.
func headlineMix() MixConfig {
	return MixConfig{
		Model:         "moe",
		Classes:       3,
		Requests:      320,
		Samples:       32,
		MeanGapCycles: 1_200_000,
		Seed:          11,
		MixWalkSD:     0.20,
	}
}

func headlineConfig(pol Policy) Config {
	base := fleetBase("moe")
	base.DriftThreshold = 0.045
	base.PlanCache = true
	base.PlanCacheNearest = true
	base.PlanCacheMaxDist = 0.10
	base.HostReschedCycles = 1_500_000
	return Config{
		Base:                 base,
		Replicas:             HomogeneousSpecs(4, base.RC.HW),
		Policy:               pol,
		AffinitySpillSamples: 32,
	}
}

// TestAffinityRoutingBeatsRRAndJSQ is the headline experiment: four replicas
// serving a drifting three-class mix at equal offered load under each policy.
// Plan-affinity keeps each replica's live profile close to one class, so its
// plans stay matched (lower latency) and drift re-plans are rarer; the
// plan-oblivious policies serve the blend and re-plan as it drifts. The
// shared plan cache must also show warm cross-replica hits.
func TestAffinityRoutingBeatsRRAndJSQ(t *testing.T) {
	reps := map[Policy]*Report{}
	for _, pol := range Policies() {
		src, err := NewMixSource(headlineMix())
		if err != nil {
			t.Fatalf("NewMixSource: %v", err)
		}
		rep := mustFleetServe(t, headlineConfig(pol), src)
		checkConservation(t, rep, headlineMix().Requests)
		reps[pol] = rep
		t.Logf("%-8s p50=%.0f p95=%.0f p99=%.0f replans=%d shared=%d dist=%.4f final=%d",
			pol, rep.Latency.P50, rep.Latency.P95, rep.Latency.P99,
			rep.Reschedules, rep.SharedPlanHits, rep.MeanAffinityDist, rep.FinalCycles)
	}
	aff, rr, jsq := reps[PolicyAffinity], reps[PolicyRR], reps[PolicyJSQ]
	if aff.Latency.P99 >= rr.Latency.P99 {
		t.Errorf("affinity p99 %.0f not better than round-robin %.0f", aff.Latency.P99, rr.Latency.P99)
	}
	if aff.Latency.P99 >= jsq.Latency.P99 {
		t.Errorf("affinity p99 %.0f not better than join-shortest-queue %.0f", aff.Latency.P99, jsq.Latency.P99)
	}
	affReplans := aff.Reschedules + aff.HealthReschedules
	if rrReplans := rr.Reschedules + rr.HealthReschedules; affReplans >= rrReplans {
		t.Errorf("affinity re-plans %d not fewer than round-robin %d", affReplans, rrReplans)
	}
	if jsqReplans := jsq.Reschedules + jsq.HealthReschedules; affReplans >= jsqReplans {
		t.Errorf("affinity re-plans %d not fewer than join-shortest-queue %d", affReplans, jsqReplans)
	}
	if aff.SharedPlanHits == 0 {
		t.Errorf("affinity run saw no warm shared-cache hits")
	}
	if aff.MeanAffinityDist < 0 {
		t.Errorf("mean affinity distance %f negative", aff.MeanAffinityDist)
	}
}

// TestFleetDeterminismAcrossGOMAXPROCS is the determinism wall: the same
// fleet run at GOMAXPROCS 1 and 4 must produce byte-identical outcome logs
// and byte-identical trace JSON.
func TestFleetDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) ([]byte, []byte) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		base := fleetBase("moe")
		base.PlanCache = true
		base.RC.Trace = telemetry.NewTrace()
		src, err := NewMixSource(headlineMix())
		if err != nil {
			t.Fatalf("NewMixSource: %v", err)
		}
		cfg := headlineConfig(PolicyAffinity)
		cfg.Base = base
		rep := mustFleetServe(t, cfg, src)
		var tr bytes.Buffer
		if err := base.RC.Trace.WriteJSON(&tr); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return fleetLog(rep), tr.Bytes()
	}
	log1, trace1 := run(1)
	log4, trace4 := run(4)
	if !bytes.Equal(log1, log4) {
		t.Fatalf("outcome logs differ between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", log1, log4)
	}
	if !bytes.Equal(trace1, trace4) {
		t.Fatalf("trace JSON differs between GOMAXPROCS 1 and 4 (%d vs %d bytes)", len(trace1), len(trace4))
	}
}

// TestFleetBringupOrderInvariance checks that replica spec order cannot leak
// into results: the same fleet declared in reversed order produces the same
// outcome logs (replicas are canonicalized by name at bring-up).
func TestFleetBringupOrderInvariance(t *testing.T) {
	run := func(reverse bool) []byte {
		cfg := headlineConfig(PolicyAffinity)
		if reverse {
			specs := cfg.Replicas
			for i, j := 0, len(specs)-1; i < j; i, j = i+1, j-1 {
				specs[i], specs[j] = specs[j], specs[i]
			}
		}
		src, err := NewMixSource(headlineMix())
		if err != nil {
			t.Fatalf("NewMixSource: %v", err)
		}
		return fleetLog(mustFleetServe(t, cfg, src))
	}
	fwd, rev := run(false), run(true)
	if !bytes.Equal(fwd, rev) {
		t.Fatalf("outcome logs differ with reversed bring-up order")
	}
}

// TestFleetElasticScaling drives a fleet that starts at one active replica
// into a sustained backlog and checks the controller activates more.
func TestFleetElasticScaling(t *testing.T) {
	base := fleetBase("skipnet")
	cfg := Config{
		Base:     base,
		Replicas: HomogeneousSpecs(3, base.RC.HW),
		Policy:   PolicyJSQ,
		ScaleMin: 1,
	}
	src, err := NewMixSource(MixConfig{
		Model: "skipnet", Classes: 2, Requests: 300, Samples: 8,
		MeanGapCycles: 15_000, Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewMixSource: %v", err)
	}
	rep := mustFleetServe(t, cfg, src)
	checkConservation(t, rep, 300)
	if rep.ScaleUps == 0 {
		t.Fatalf("sustained backlog triggered no scale-up (report:\n%s)", rep)
	}
	snapshotFleet := mustFleet(t, cfg)
	snap := snapshotFleet.Snapshot()
	if snap.Counters["replicas"] != 3 || snap.Counters["replicas_active"] != 1 {
		t.Fatalf("fresh elastic fleet snapshot: %v", snap.Counters)
	}
}

// TestFleetSnapshotCounters checks the snapshot contract after a faulted run.
func TestFleetSnapshotCounters(t *testing.T) {
	base := fleetBase("skipnet")
	base.PlanCache = true
	f := mustFleet(t, Config{
		Base:     base,
		Replicas: HomogeneousSpecs(2, base.RC.HW),
		Policy:   PolicyRR,
		ReplicaFaults: &faults.Schedule{Events: []faults.Event{
			{At: 2_000_000, Kind: faults.TileBrownout, Tiles: []int{0}, Until: 5_000_000},
		}},
	})
	src, err := NewMixSource(MixConfig{
		Model: "skipnet", Classes: 2, Requests: 150, Samples: 8,
		MeanGapCycles: 50_000, Seed: 9,
	})
	if err != nil {
		t.Fatalf("NewMixSource: %v", err)
	}
	rep, err := f.Serve(src)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	checkConservation(t, rep, 150)
	if rep.ReplicaFailures == 0 || rep.ReplicaRepairs == 0 {
		t.Fatalf("brownout produced failures=%d repairs=%d", rep.ReplicaFailures, rep.ReplicaRepairs)
	}
	snap := f.Snapshot()
	for _, key := range []string{"routed_total", "reroutes", "replica_failures", "replica_repairs",
		"scale_ups", "scale_downs", "replicas", "replicas_active", "replicas_down",
		"plan_cache_entries", "plan_cache_exact_hits", "plan_cache_nearest_hits",
		"plan_cache_misses", "plan_cache_shared_hits"} {
		if _, ok := snap.Counters[key]; !ok {
			t.Errorf("snapshot missing counter %q", key)
		}
	}
	if snap.Counters["routed_total"] < 150 {
		t.Errorf("routed_total %d < requests 150", snap.Counters["routed_total"])
	}
	if snap.Counters["replica_failures"] != int64(rep.ReplicaFailures) {
		t.Errorf("snapshot failures %d != report %d", snap.Counters["replica_failures"], rep.ReplicaFailures)
	}
	if len(snap.Replicas) != 2 {
		t.Errorf("snapshot has %d replica entries, want 2", len(snap.Replicas))
	}
}

// A non-finite mixture walk step is rejected: it would turn every class
// weight NaN or infinite.
func TestNonFiniteMixWalkRejected(t *testing.T) {
	for _, sd := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewMixSource(MixConfig{Model: "moe", Requests: 10, MixWalkSD: sd}); err == nil {
			t.Errorf("MixWalkSD %v accepted", sd)
		}
	}
}

// TestFleetConfigValidation covers the constructor's rejection paths.
func TestFleetConfigValidation(t *testing.T) {
	base := fleetBase("skipnet")
	if _, err := New(Config{Base: base}); err == nil {
		t.Error("empty replica list accepted")
	}
	dup := []ReplicaSpec{{Name: "a", HW: base.RC.HW}, {Name: "a", HW: base.RC.HW}}
	if _, err := New(Config{Base: base, Replicas: dup}); err == nil {
		t.Error("duplicate replica names accepted")
	}
	bad := Config{
		Base:     base,
		Replicas: HomogeneousSpecs(2, base.RC.HW),
		ReplicaFaults: &faults.Schedule{Events: []faults.Event{
			{At: 1000, Kind: faults.NoCDegrade, Factor: 0.5},
		}},
	}
	if _, err := New(bad); err == nil {
		t.Error("NoC fault kind accepted at replica level")
	}
	allDead := Config{
		Base:     base,
		Replicas: HomogeneousSpecs(2, base.RC.HW),
		ReplicaFaults: &faults.Schedule{Events: []faults.Event{
			{At: 1000, Kind: faults.TileFail, Tiles: []int{0}},
			{At: 2000, Kind: faults.TileFail, Tiles: []int{1}},
		}},
	}
	if _, err := New(allDead); err == nil {
		t.Error("fault schedule killing every replica accepted")
	}
	scale := Config{Base: base, Replicas: HomogeneousSpecs(2, base.RC.HW), ScaleMin: 2}
	if _, err := New(scale); err == nil {
		t.Error("ScaleMin == len(replicas) accepted")
	}
}
