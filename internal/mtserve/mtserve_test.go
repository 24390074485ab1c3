package mtserve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
)

// headlineConfig is the three-tenant contention scenario of the headline
// test. A bursting fbsnet tenant ramps toward 1.9x its initial arrival rate
// while an fbsnet tenant decays to 0.6x and a dpsnet tenant holds steady, so
// the offered mix drifts away from any split chosen up front. The aggregate
// peak load exceeds what serialized full-chip batches sustain, but fits when
// the tenants run concurrently on adapted partitions (mid-size partitions
// amortize per-batch fill overhead far better than the full chip does on
// serving-grain single batches).
func headlineConfig(mode Mode) Config {
	rc := core.DefaultRunConfig()
	rc.Batch = 16
	rc.Warmup = 8
	return Config{
		RC:   rc,
		Mode: mode,
		Tenants: []Tenant{
			{Name: "burst", Model: "fbsnet", SLOCycles: 4_000_000, MeanGapCycles: 37_000, Requests: 1700,
				RateWalkSD: 0.05, RateBias: 1.9, RateRevert: 0.006, Weight: 36},
			{Name: "steady", Model: "dpsnet", SLOCycles: 4_000_000, MeanGapCycles: 36_000, Requests: 1000,
				RateWalkSD: 0.02, Weight: 26},
			{Name: "decay", Model: "fbsnet", SLOCycles: 4_000_000, MeanGapCycles: 37_000, Requests: 590,
				RateWalkSD: 0.05, RateBias: 0.6, RateRevert: 0.03, Weight: 36},
		},
		MinTiles:        28,
		DriftThreshold:  0.06,
		CheckEvery:      4,
		CooldownBatches: 8,
		StarvePressure:  0.35,
	}
}

// A non-finite starvation threshold is rejected at bring-up: no pressure
// spread reaches NaN or +Inf, so it would switch the starvation trigger off
// silently.
func TestNonFiniteStarvePressureRejected(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := headlineConfig(ModeRepartition)
		cfg.StarvePressure = p
		if _, err := New(cfg); err == nil {
			t.Errorf("StarvePressure %v accepted", p)
		}
	}
}

func mustServe(t *testing.T, cfg Config) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", cfg.Mode, err)
	}
	rep, err := s.Serve()
	if err != nil {
		t.Fatalf("Serve(%s): %v", cfg.Mode, err)
	}
	return rep
}

// TestRepartitioningBeatsStaticAndTimeSlicing is the headline claim: at
// equal offered load, drift-aware cross-tenant re-partitioning achieves a
// lower aggregate p99 than both a static partition and naive time-slicing,
// with sheds and deadline misses no worse than either.
func TestRepartitioningBeatsStaticAndTimeSlicing(t *testing.T) {
	reps := map[Mode]*Report{}
	for _, mode := range []Mode{ModeStatic, ModeTimeSlice, ModeRepartition} {
		rep := mustServe(t, headlineConfig(mode))
		reps[mode] = rep
		t.Logf("%-11s agg p50=%.0f p99=%.0f mean=%.0f shed=%d missed=%d repartitions=%d",
			mode, rep.Latency.P50, rep.Latency.P99, rep.Latency.Mean,
			rep.Shed, rep.Missed, rep.Repartitions)
		for _, tr := range rep.Tenants {
			t.Logf("  %-7s tiles=%-3d req=%d served=%d missed=%d shed=%d p50=%.0f p99=%.0f",
				tr.Name, tr.Tiles, tr.Requests, tr.Served, tr.Missed, tr.Shed,
				tr.Latency.P50, tr.Latency.P99)
		}
	}
	st, sl, re := reps[ModeStatic], reps[ModeTimeSlice], reps[ModeRepartition]

	// Equal offered load: every mode drained identical per-tenant streams.
	for i := range re.Tenants {
		if re.Tenants[i].Requests != st.Tenants[i].Requests ||
			re.Tenants[i].Requests != sl.Tenants[i].Requests {
			t.Fatalf("tenant %s request counts differ across modes: %d/%d/%d",
				re.Tenants[i].Name, st.Tenants[i].Requests, sl.Tenants[i].Requests, re.Tenants[i].Requests)
		}
	}
	// Requests are conserved: every request ends served, missed, or shed.
	for _, rep := range reps {
		for _, tr := range rep.Tenants {
			if tr.Served+tr.Missed+tr.Shed != tr.Requests {
				t.Errorf("%s/%s: served %d + missed %d + shed %d != requests %d",
					rep.Mode, tr.Name, tr.Served, tr.Missed, tr.Shed, tr.Requests)
			}
			if len(tr.Outcomes) != tr.Requests {
				t.Errorf("%s/%s: %d outcomes for %d requests", rep.Mode, tr.Name, len(tr.Outcomes), tr.Requests)
			}
		}
	}
	if re.Repartitions == 0 {
		t.Error("repartition mode never moved a tile")
	}
	if re.Latency.P99 >= sl.Latency.P99 {
		t.Errorf("re-partitioning p99 %.0f not better than time-slicing %.0f", re.Latency.P99, sl.Latency.P99)
	}
	if re.Latency.P99 >= st.Latency.P99 {
		t.Errorf("re-partitioning p99 %.0f not better than static %.0f", re.Latency.P99, st.Latency.P99)
	}
	if re.Shed > sl.Shed || re.Shed > st.Shed {
		t.Errorf("re-partitioning sheds %d worse than static %d or time-slicing %d", re.Shed, st.Shed, sl.Shed)
	}
	if re.Missed > sl.Missed || re.Missed > st.Missed {
		t.Errorf("re-partitioning misses %d worse than static %d or time-slicing %d", re.Missed, st.Missed, sl.Missed)
	}
}

// chaosConfig combines per-tenant rate drift with a mid-run tile loss that
// lands squarely on the first tenant's partition.
func chaosConfig(mode Mode) Config {
	cfg := headlineConfig(mode)
	cfg.Tenants[0].Requests = 600
	cfg.Tenants[1].Requests = 400
	cfg.Tenants[2].Requests = 250
	tiles := make([]int, 24)
	for i := range tiles {
		tiles[i] = i
	}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 6_000_000, Kind: faults.TileFail, Tiles: tiles},
	}}
	return cfg
}

// TestChaosDriftAndTileLoss drives the repartitioning server through rate
// drift plus a permanent 24-tile failure and checks it survives with its
// accounting intact: the dead tiles are folded into every later partition,
// the fault registers on the affected tenants, and every request still
// resolves to exactly one outcome.
func TestChaosDriftAndTileLoss(t *testing.T) {
	for _, mode := range []Mode{ModeStatic, ModeTimeSlice, ModeRepartition} {
		rep := mustServe(t, chaosConfig(mode))
		faultEvents := 0
		for _, tr := range rep.Tenants {
			faultEvents += tr.FaultEvents
			if tr.Served+tr.Missed+tr.Shed != tr.Requests {
				t.Errorf("%s/%s: served %d + missed %d + shed %d != requests %d",
					mode, tr.Name, tr.Served, tr.Missed, tr.Shed, tr.Requests)
			}
		}
		if faultEvents == 0 {
			t.Errorf("%s: tile loss registered on no tenant", mode)
		}
		if mode == ModeRepartition && rep.Repartitions == 0 {
			t.Errorf("%s: tile loss did not trigger a repartition", mode)
		}
		t.Logf("%-11s p99=%.0f shed=%d missed=%d faultEvents=%d repartitions=%d",
			mode, rep.Latency.P99, rep.Shed, rep.Missed, faultEvents, rep.Repartitions)
	}
}

// TestChaosReschedulesAccounting pins the plan-swap accounting on the chaos
// scenario: the report's Reschedules sums the per-tenant counts in every
// mode, and every tenant that observed a capability change re-planned over
// its survivors at least once.
func TestChaosReschedulesAccounting(t *testing.T) {
	for _, mode := range []Mode{ModeStatic, ModeTimeSlice, ModeRepartition} {
		rep := mustServe(t, chaosConfig(mode))
		sum := 0
		for _, tr := range rep.Tenants {
			sum += tr.Reschedules
			if tr.FaultEvents > 0 && tr.Reschedules == 0 {
				t.Errorf("%s/%s: saw %d capability changes but never re-planned", mode, tr.Name, tr.FaultEvents)
			}
		}
		if rep.Reschedules != sum {
			t.Errorf("%s: report Reschedules %d, tenants sum to %d", mode, rep.Reschedules, sum)
		}
	}
}

// outcomeLog renders every tenant's per-request outcome stream as text, the
// determinism witness compared across GOMAXPROCS settings.
func outcomeLog(rep *Report) string {
	var b strings.Builder
	for _, tr := range rep.Tenants {
		for _, res := range tr.Outcomes {
			fmt.Fprintf(&b, "%s %d %d %d %d\n", tr.Name, res.ID, res.Arrival, res.Done, res.Outcome)
		}
	}
	fmt.Fprintf(&b, "repartitions=%d reschedules=%d final=%d\n", rep.Repartitions, rep.Reschedules, rep.FinalCycles)
	return b.String()
}

// TestDeterminismAcrossGOMAXPROCS pins byte-identical per-tenant outcome
// logs between single-threaded and parallel runtimes, for the chaos scenario
// (drift, faults, repartitioning all active).
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return outcomeLog(mustServe(t, chaosConfig(ModeRepartition)))
	}
	one := run(1)
	four := run(4)
	if one != four {
		t.Fatal("outcome logs differ between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestPartitionDisjointnessAndConservation is the property test over the
// tile-split primitives: apportion distributes exactly the surviving tiles
// with the floor respected, and assignPartitions lays the counts out as
// disjoint masks that avoid every failed tile.
func TestPartitionDisjointnessAndConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		total := 16 + rng.Intn(256)
		n := 1 + rng.Intn(6)
		weights := make([]float64, n)
		eligible := make([]bool, n)
		live := 0
		for i := range weights {
			eligible[i] = rng.Intn(5) > 0
			if eligible[i] {
				live++
			}
			weights[i] = float64(rng.Intn(40)) - 2 // occasionally negative
		}
		if live == 0 {
			eligible[0] = true
			live = 1
		}
		var failedTiles []int
		for tile := 0; tile < total; tile++ {
			if rng.Intn(4) == 0 && total-len(failedTiles) > live*2 {
				failedTiles = append(failedTiles, tile)
			}
		}
		failed := hw.NewTileMask(failedTiles...)
		surviving := total - failed.Count()
		floor := 1 + rng.Intn(4)

		counts := apportion(weights, eligible, surviving, floor)
		sum := 0
		effFloor := floor
		if effFloor*live > surviving {
			effFloor = surviving / live
		}
		if effFloor < 1 {
			effFloor = 1
		}
		for i, c := range counts {
			if !eligible[i] {
				if c != 0 {
					t.Fatalf("trial %d: ineligible tenant %d got %d tiles", trial, i, c)
				}
				continue
			}
			if c < effFloor {
				t.Fatalf("trial %d: tenant %d got %d tiles, floor %d", trial, i, c, effFloor)
			}
			sum += c
		}
		if sum != surviving {
			t.Fatalf("trial %d: apportion gave %d of %d surviving tiles", trial, sum, surviving)
		}

		assign := assignPartitions(counts, total, failed)
		var union hw.TileMask
		owned := 0
		for i, mask := range assign {
			if mask.Count() != counts[i] {
				t.Fatalf("trial %d: tenant %d mask has %d tiles, want %d", trial, i, mask.Count(), counts[i])
			}
			for tile := 0; tile < total; tile++ {
				if !mask.Failed(tile) {
					continue
				}
				if failed.Failed(tile) {
					t.Fatalf("trial %d: tenant %d owns failed tile %d", trial, i, tile)
				}
				if union.Failed(tile) {
					t.Fatalf("trial %d: tile %d owned by two tenants", trial, tile)
				}
			}
			union = union.Or(mask)
			owned += mask.Count()
		}
		if owned != surviving {
			t.Fatalf("trial %d: partitions cover %d of %d surviving tiles", trial, owned, surviving)
		}
	}
}

func TestParseSpec(t *testing.T) {
	tens, err := ParseSpec("moe:slo=5M:gap=30k:prio=1,fbsnet:slo=2.5M:gap=6e4:walk=0.05:bias=2:revert=0.01,moe:req=50:weight=3:seed=9", Tenant{Requests: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(tens) != 3 {
		t.Fatalf("got %d tenants", len(tens))
	}
	m := tens[0]
	if m.Name != "moe" || m.Model != "moe" || m.SLOCycles != 5_000_000 || m.MeanGapCycles != 30_000 || m.Priority != 1 || m.Requests != 400 {
		t.Errorf("tenant 0 parsed wrong: %+v", m)
	}
	f := tens[1]
	if f.Model != "fbsnet" || f.SLOCycles != 2_500_000 || f.MeanGapCycles != 60_000 || f.RateWalkSD != 0.05 || f.RateBias != 2 || f.RateRevert != 0.01 {
		t.Errorf("tenant 1 parsed wrong: %+v", f)
	}
	m2 := tens[2]
	if m2.Name != "moe-2" || m2.Requests != 50 || m2.Weight != 3 || m2.Seed != 9 {
		t.Errorf("tenant 2 parsed wrong: %+v", m2)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		",,",
		":slo=5M",
		"moe:slo",
		"moe:turbo=1",
		"moe:slo=fast",
	} {
		if _, err := ParseSpec(spec, Tenant{}); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
	}
}

// TestParseSpecRejectsBadValues pins per-parameter validation: gap, req,
// walk, bias, revert and weight must be finite and non-negative, and the
// error names the offending parameter.
func TestParseSpecRejectsBadValues(t *testing.T) {
	for _, param := range []string{
		"gap=-30k",
		"req=-1",
		"walk=-0.5",
		"walk=NaN",
		"bias=-1",
		"bias=+Inf",
		"revert=-0.01",
		"weight=NaN",
		"weight=-3",
		"weight=Inf",
		"slo=-5M",
		"slo=-1",
		"wait=-100",
	} {
		_, err := ParseSpec("fbsnet:slo=5M,moe:"+param, Tenant{})
		if err == nil {
			t.Errorf("parameter %q accepted", param)
			continue
		}
		if !strings.Contains(err.Error(), param) {
			t.Errorf("parameter %q: error %q does not name it", param, err)
		}
	}
	// Zero stays legal: it selects each field's serving default.
	if _, err := ParseSpec("moe:slo=0:wait=0:gap=0:req=0:walk=0:bias=0:revert=0:weight=0", Tenant{}); err != nil {
		t.Errorf("all-zero parameters rejected: %v", err)
	}
}

func TestParseMode(t *testing.T) {
	for spec, want := range map[string]Mode{
		"static": ModeStatic, "timeslice": ModeTimeSlice, "time-slice": ModeTimeSlice,
		"repartition": ModeRepartition, "adaptive": ModeRepartition,
	} {
		got, err := ParseMode(spec)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseMode("frobnicate"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
}

// TestPartitionLossReassigns kills every tile of a small partition mid-run.
// Re-partitioning moves the tenant onto survivors before its session applies
// the fault and keeps serving; static partitioning cannot, and says so.
func TestPartitionLossReassigns(t *testing.T) {
	mk := func(mode Mode) Config {
		rc := core.DefaultRunConfig()
		rc.Batch = 16
		rc.Warmup = 8
		return Config{
			RC:   rc,
			Mode: mode,
			Tenants: []Tenant{
				{Model: "fbsnet", SLOCycles: 4_000_000, MeanGapCycles: 50_000, Requests: 100, Weight: 1},
				{Model: "dpsnet", SLOCycles: 4_000_000, MeanGapCycles: 50_000, Requests: 100, Weight: 100},
			},
			Faults: &faults.Schedule{Events: []faults.Event{
				{At: 2_000_000, Kind: faults.TileFail, Tiles: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
			}},
		}
	}
	rep := mustServe(t, mk(ModeRepartition))
	if rep.Repartitions == 0 {
		t.Fatal("losing a whole partition triggered no repartition")
	}
	for _, tr := range rep.Tenants {
		if tr.Served+tr.Missed+tr.Shed != tr.Requests || tr.Requests != 100 {
			t.Errorf("%s: %d+%d+%d outcomes for %d requests", tr.Name, tr.Served, tr.Missed, tr.Shed, tr.Requests)
		}
		if tr.FaultEvents == 0 || tr.Reschedules == 0 {
			t.Errorf("%s: %d fault events, %d re-plans", tr.Name, tr.FaultEvents, tr.Reschedules)
		}
	}
	s, err := New(mk(ModeStatic))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(); err == nil || !strings.Contains(err.Error(), "lost every tile") {
		t.Fatalf("static mode on a dead partition: err %v", err)
	}
}
