package serve

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// faultConfig is the degraded-mode serving setup of the fault tests: small
// batches so the stream forms many of them, a deadline tight enough that a
// frozen plan on a damaged chip misses it.
func faultConfig(model string, reschedule bool, fs *faults.Schedule) Config {
	rc := core.DefaultRunConfig()
	rc.Batch = 8
	rc.Warmup = 10
	rc.Seed = 1
	return Config{
		Model:           model,
		RC:              rc,
		MaxBatch:        8,
		SLOCycles:       3_000_000,
		Reschedule:      reschedule,
		DriftThreshold:  0.02,
		CooldownBatches: 16,
		Faults:          fs,
	}
}

// TestFaultAwareReschedulingBeatsStaticUnderTileLoss is the acceptance check
// of the fault story: mid-run, a quarter of the chip (36 of 144 tiles) fails
// permanently. The fault-aware server re-plans onto the survivors; the
// frozen-plan server limps on with its dead regions folded onto whatever
// survived. At the same seed and arrival stream, fault-aware must achieve
// strictly lower p99 latency and strictly fewer deadline misses.
func TestFaultAwareReschedulingBeatsStaticUnderTileLoss(t *testing.T) {
	schedule := func() *faults.Schedule {
		return &faults.Schedule{Events: []faults.Event{
			{At: 3_000_000, Kind: faults.TileFail, Tiles: tileRange(0, 36)},
		}}
	}
	src := func() Source { return NewSynthetic(300, 80_000, 2, nil) }
	aware := mustServe(t, faultConfig("skipnet", true, schedule()), src())
	frozen := mustServe(t, faultConfig("skipnet", false, schedule()), src())

	t.Logf("fault-aware: p50=%.0f p99=%.0f shed=%d missed=%d health-reschedules=%d",
		aware.Latency.P50, aware.Latency.P99, aware.Shed, aware.Missed, aware.HealthReschedules)
	t.Logf("frozen plan: p50=%.0f p99=%.0f shed=%d missed=%d",
		frozen.Latency.P50, frozen.Latency.P99, frozen.Shed, frozen.Missed)

	if aware.HealthReschedules == 0 {
		t.Fatalf("tile loss never triggered a health re-schedule")
	}
	if frozen.HealthReschedules != 0 {
		t.Fatalf("frozen-plan server re-scheduled %d times", frozen.HealthReschedules)
	}
	if aware.FaultEvents == 0 || frozen.FaultEvents == 0 {
		t.Fatalf("fault events not observed: aware=%d frozen=%d", aware.FaultEvents, frozen.FaultEvents)
	}
	if aware.Latency.P99 >= frozen.Latency.P99 {
		t.Errorf("fault-aware p99 %.0f not lower than frozen %.0f", aware.Latency.P99, frozen.Latency.P99)
	}
	if aware.Missed >= frozen.Missed {
		t.Errorf("fault-aware missed %d deadlines, frozen only %d", aware.Missed, frozen.Missed)
	}
}

func tileRange(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// TestEmptyFaultScheduleIsNoop is the metamorphic check guarding the healthy
// hot path: serving with an empty (but non-nil) fault schedule must produce
// an outcome log byte-identical to serving with no schedule at all.
func TestEmptyFaultScheduleIsNoop(t *testing.T) {
	src := func() Source { return NewSynthetic(200, 40_000, 7, nil) }
	with := mustServe(t, faultConfig("skipnet", true, &faults.Schedule{}), src())
	without := mustServe(t, faultConfig("skipnet", true, nil), src())

	if len(with.Outcomes) != len(without.Outcomes) {
		t.Fatalf("outcome logs differ in length: %d vs %d", len(with.Outcomes), len(without.Outcomes))
	}
	for i := range with.Outcomes {
		if with.Outcomes[i] != without.Outcomes[i] {
			t.Fatalf("outcome %d differs: empty-schedule %+v vs nil %+v",
				i, with.Outcomes[i], without.Outcomes[i])
		}
	}
	if with.FinalCycles != without.FinalCycles || with.Batches != without.Batches {
		t.Fatalf("report-level divergence: final %d vs %d, batches %d vs %d",
			with.FinalCycles, without.FinalCycles, with.Batches, without.Batches)
	}
	if with.FaultEvents != 0 || with.HealthReschedules != 0 {
		t.Fatalf("empty schedule produced fault activity: %+v", with)
	}
}

// TestChaosRandomFaultSchedules throws 50 randomized seeded fault schedules
// at the server — failures, brown-outs, bandwidth loss, overlapping windows —
// and asserts the liveness and accounting properties that must hold under
// ANY survivable schedule: serving terminates, every executed request
// completes at or after its arrival, and the outcome counters sum to the
// request total.
func TestChaosRandomFaultSchedules(t *testing.T) {
	cfg0 := faultConfig("skipnet", true, nil)
	for seed := int64(0); seed < 50; seed++ {
		fs := faults.Random(cfg0.RC.HW, seed, 6_000_000, 6)
		if err := fs.Validate(cfg0.RC.HW); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		cfg := cfg0
		cfg.Faults = fs
		// Alternate fault-aware and frozen-plan serving across seeds so both
		// degraded paths face the chaos.
		cfg.Reschedule = seed%2 == 0
		rep := mustServe(t, cfg, NewSynthetic(40, 60_000, seed+3, nil))

		if got := rep.Served + rep.Missed + rep.Shed; got != rep.Requests || rep.Requests != 40 {
			t.Fatalf("seed %d: outcome counters %d+%d+%d don't sum to %d requests",
				seed, rep.Served, rep.Missed, rep.Shed, rep.Requests)
		}
		for _, o := range rep.Outcomes {
			if o.Outcome != Shed && o.Done < o.Arrival {
				t.Fatalf("seed %d: request %d done %d before arrival %d", seed, o.ID, o.Done, o.Arrival)
			}
		}
		if rep.FinalCycles <= 0 {
			t.Fatalf("seed %d: stream never executed: %+v", seed, rep)
		}
	}
}

// TestFaultServingDeterministic replays one faulty serving run at GOMAXPROCS
// 1 and 4: fault injection rides the machine clock, so host parallelism must
// not leak into the outcome log (run under -race in CI).
func TestFaultServingDeterministic(t *testing.T) {
	run := func(procs int) *Report {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		fs := &faults.Schedule{Events: []faults.Event{
			{At: 2_000_000, Kind: faults.TileBrownout, Tiles: tileRange(20, 24), Until: 5_000_000},
			{At: 3_000_000, Kind: faults.HBMDegrade, Factor: 0.5, Until: 7_000_000},
			{At: 4_000_000, Kind: faults.NoCDegrade, Factor: 0.6},
		}}
		return mustServe(t, faultConfig("skipnet", true, fs), NewSynthetic(120, 70_000, 13, nil))
	}
	serial := run(1)
	parallel := run(4)
	if len(serial.Outcomes) != len(parallel.Outcomes) {
		t.Fatalf("outcome logs differ in length: %d vs %d", len(serial.Outcomes), len(parallel.Outcomes))
	}
	for i := range serial.Outcomes {
		if serial.Outcomes[i] != parallel.Outcomes[i] {
			t.Fatalf("outcome %d differs: serial %+v parallel %+v", i, serial.Outcomes[i], parallel.Outcomes[i])
		}
	}
	if serial.FinalCycles != parallel.FinalCycles ||
		serial.FaultEvents != parallel.FaultEvents ||
		serial.HealthReschedules != parallel.HealthReschedules {
		t.Fatalf("report-level divergence: %+v vs %+v", serial, parallel)
	}
	if serial.FaultEvents == 0 {
		t.Fatalf("fault schedule never fired")
	}
}

// TestFaultsComposeOntoDeratedChip serves on a chip that starts at half HBM
// bandwidth through a tile brown-out and an HBM degradation window. Faults
// compose onto the base config instead of replacing it: the config every
// health re-plan is built for keeps the base 0.5 times the fault's HBM
// factor, and the machine runs at healthy x 0.5 x factor — never at full
// bandwidth, and never with the base derate applied twice.
func TestFaultsComposeOntoDeratedChip(t *testing.T) {
	fs, err := faults.ParseSpec("brownout@2000000:tiles=3,until=4000000;hbm@2500000:factor=0.5,until=3500000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig("skipnet", true, fs)
	cfg.RC.HW.HBMDerate = 0.5
	healthy := cfg.RC.HW
	healthy.HBMDerate = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Begin()
	src := NewSynthetic(200, 40_000, 7, nil)
	for req, more := src.Next(); more; req, more = src.Next() {
		s.Enqueue(req)
	}
	phases := map[[2]bool]bool{}
	for h := int64(100_000); h <= 6_000_000; h += 100_000 {
		if err := s.StepTo(h); err != nil {
			t.Fatal(err)
		}
		now := s.Now()
		brown := now >= 2_000_000 && now < 4_000_000
		slow := now >= 2_500_000 && now < 3_500_000
		phases[[2]bool{brown, slow}] = true
		want := 0.5
		if slow {
			want = 0.25
		}
		live := s.liveHW()
		if live.HBMDerate != want || live.TileFailed(3) != brown || live.FailedTiles.Count() != map[bool]int{false: 0, true: 1}[brown] {
			t.Fatalf("cycle %d: re-plan config hbm=%v failed=%v, want hbm=%v tile 3 failed=%v",
				now, live.HBMDerate, live.FailedTiles, want, brown)
		}
		if got, exp := s.setup.M.HBMBytesPerCycle(), healthy.HBMBytesPerCycle()*want; math.Abs(got-exp) > 1e-9*exp {
			t.Fatalf("cycle %d: machine HBM rate %v B/cycle, want healthy x %v = %v", now, got, want, exp)
		}
	}
	if len(phases) != 3 {
		t.Fatalf("checkpoints saw phases %v, want healthy, brown-out and brown-out+HBM", phases)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if rep := s.Finish(); rep.HealthReschedules < 4 {
		t.Fatalf("%d health re-plans, want one per capability change (4)", rep.HealthReschedules)
	}
}
