package serve

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/workload"
)

// quickConfig is a small, fast serving setup used by the unit tests.
func quickConfig(model string) Config {
	rc := core.DefaultRunConfig()
	rc.Batch = 32
	rc.Warmup = 8
	return Config{
		Model:           model,
		RC:              rc,
		MaxBatch:        32,
		SLOCycles:       4_000_000,
		Reschedule:      true,
		DriftThreshold:  0.02,
		CooldownBatches: 16,
	}
}

func mustServe(t *testing.T, cfg Config, src Source) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Serve(src)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return rep
}

func TestServeAccountsEveryRequest(t *testing.T) {
	cfg := quickConfig("skipnet")
	rep := mustServe(t, cfg, NewSynthetic(300, 40_000, 7, nil))
	if rep.Requests != 300 {
		t.Fatalf("accounted %d of 300 requests", rep.Requests)
	}
	if got := rep.Served + rep.Missed + rep.Shed; got != rep.Requests {
		t.Fatalf("outcome counters %d don't sum to requests %d", got, rep.Requests)
	}
	if len(rep.Outcomes) != rep.Requests {
		t.Fatalf("outcome log has %d entries, want %d", len(rep.Outcomes), rep.Requests)
	}
	seen := map[int]bool{}
	for _, o := range rep.Outcomes {
		if seen[o.ID] {
			t.Fatalf("request %d recorded twice", o.ID)
		}
		seen[o.ID] = true
		if o.Outcome != Shed {
			if o.Done < o.Arrival {
				t.Fatalf("request %d done %d before arrival %d", o.ID, o.Done, o.Arrival)
			}
		}
	}
	if rep.Batches == 0 || rep.FinalCycles == 0 {
		t.Fatalf("no execution recorded: %+v", rep)
	}
}

// TestDualPolicyFiresOnWaitDeadline drives arrivals far slower than the wait
// deadline: every batch must fire partial (well under the cap) and latency
// must stay bounded by wait + service, far below what waiting for a full
// batch would cost.
func TestDualPolicyFiresOnWaitDeadline(t *testing.T) {
	cfg := quickConfig("skipnet")
	cfg.SLOCycles = 0
	cfg.MaxWaitCycles = 50_000
	// One arrival per 2M cycles: filling a 32-batch would take 64M cycles.
	rep := mustServe(t, cfg, NewSynthetic(10, 2_000_000, 3, nil))
	if rep.Shed != 0 || rep.Missed != 0 {
		t.Fatalf("unexpected shed/missed in underload: %+v", rep)
	}
	// Batches must be (nearly) per-request: the wait deadline fires long
	// before a second request arrives.
	if rep.Batches < 8 {
		t.Fatalf("expected ~10 partial batches, got %d", rep.Batches)
	}
}

// TestDualPolicyFiresOnSizeCap sends a synchronized burst: the size cap must
// fire a full batch without waiting out the deadline.
func TestDualPolicyFiresOnSizeCap(t *testing.T) {
	cfg := quickConfig("skipnet")
	cfg.SLOCycles = 0
	cfg.MaxWaitCycles = 10_000_000
	cfg.QueueCapSamples = 1000
	rep := mustServe(t, cfg, NewSynthetic(64, 1, 3, nil)) // all arrive ~at once
	if rep.Batches != 2 {
		t.Fatalf("64 burst requests at cap 32 should form 2 batches, got %d", rep.Batches)
	}
	if rep.FinalCycles > 10_000_000 {
		t.Fatalf("burst waited out the deadline instead of firing on the cap (final clock %d)", rep.FinalCycles)
	}
}

// TestFinalPartialBatchHonorsWaitDeadline pins the end-of-stream batching
// policy: the last partial batch idles to the head request's queue-wait
// deadline exactly like a mid-stream one, instead of flushing the moment the
// source dries up. (Flushing early batched the tail of every run under a
// different policy than steady state, skewing -compare tails.)
func TestFinalPartialBatchHonorsWaitDeadline(t *testing.T) {
	cfg := quickConfig("skipnet")
	cfg.SLOCycles = 0
	cfg.MaxWaitCycles = 2_000_000
	rep := mustServe(t, cfg, NewSynthetic(1, 10_000, 3, nil))
	if rep.Batches != 1 || len(rep.Outcomes) != 1 {
		t.Fatalf("want exactly one batch/outcome, got %d/%d", rep.Batches, len(rep.Outcomes))
	}
	o := rep.Outcomes[0]
	if wait := o.Done - o.Arrival; wait < cfg.MaxWaitCycles {
		t.Fatalf("final partial batch fired after %d cycles, want at least the %d-cycle wait deadline",
			wait, cfg.MaxWaitCycles)
	}
	if rep.FinalCycles < o.Arrival+cfg.MaxWaitCycles {
		t.Fatalf("stream drained at %d, before the tail's wait deadline %d",
			rep.FinalCycles, o.Arrival+cfg.MaxWaitCycles)
	}
}

// TestOverloadSheds overdrives the server and checks bounded-queue shedding
// kicks in rather than queueing without bound.
func TestOverloadSheds(t *testing.T) {
	cfg := quickConfig("skipnet")
	cfg.QueueCapSamples = 40
	rep := mustServe(t, cfg, NewSynthetic(500, 500, 5, nil)) // ~70x overload
	if rep.Shed == 0 {
		t.Fatalf("no shedding under extreme overload: %+v", rep)
	}
	for _, o := range rep.Outcomes {
		if o.Outcome == Shed && o.Done != 0 {
			t.Fatalf("shed request %d has a completion time", o.ID)
		}
	}
}

func TestReplayServing(t *testing.T) {
	w, err := models.ByName("skipnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	batches := w.GenTrace(workload.NewSource(11), 6, 16)
	rec := workload.Record(w.Graph, "skipnet", 16, 11, batches)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewReplay(w.Graph, loaded, 500_000, 2)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig("skipnet")
	cfg.RC.Batch = 16
	cfg.MaxBatch = 16
	cfg.SLOCycles = 0
	rep := mustServe(t, cfg, src)
	// Each recorded batch is pre-routed and executes as its own batch.
	if rep.Batches != 6 || rep.Requests != 6 {
		t.Fatalf("replayed 6 recorded batches, got %d batches / %d requests", rep.Batches, rep.Requests)
	}
	if rep.Shed != 0 {
		t.Fatalf("replay shed %d requests", rep.Shed)
	}
}

func TestSyntheticDeterministicAndOrdered(t *testing.T) {
	drift := workload.NewDrift(1, 0.25, 2.5, 0.2)
	a := NewSynthetic(200, 10_000, 9, drift)
	b := NewSynthetic(200, 10_000, 9, workload.NewDrift(1, 0.25, 2.5, 0.2))
	prev := int64(-1)
	n := 0
	for {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if oka != okb {
			t.Fatalf("streams ended at different lengths")
		}
		if !oka {
			break
		}
		if ra.ID != rb.ID || ra.Arrival != rb.Arrival || ra.Samples != rb.Samples {
			t.Fatalf("same-seed synthetic streams diverge at %d: %+v vs %+v", n, ra, rb)
		}
		if ra.Arrival < prev {
			t.Fatalf("arrivals not monotone: %d after %d", ra.Arrival, prev)
		}
		prev = ra.Arrival
		n++
	}
	if n != 200 {
		t.Fatalf("stream produced %d requests, want 200", n)
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{Served: "served", DeadlineMissed: "deadline-missed", Shed: "shed", Outcome(9): "outcome(9)"}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

// TestDetectorTracksDrift checks the divergence signal: zero right after a
// rebase, positive once the live profile moves.
func TestDetectorTracksDrift(t *testing.T) {
	s, err := New(quickConfig("moe"))
	if err != nil {
		t.Fatal(err)
	}
	if d := s.det.Divergence(); d != 0 {
		t.Fatalf("divergence %v right after rebase, want 0", d)
	}
	// Push heavily skewed batches through the profiler to move the profile.
	w := s.setup.W
	for i := 0; i < 64; i++ {
		b := w.Gen.Next(s.setup.Src, 32*w.Graph.UnitsPerSample)
		units, err := w.Graph.AssignUnits(nil, 32*w.Graph.UnitsPerSample, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.setup.M.Profiler().ObserveBatch(units, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	d := s.det.Divergence()
	if d <= 0 {
		t.Fatalf("divergence %v after 64 drifting batches, want > 0", d)
	}
	s.det.Rebase()
	if d2 := s.det.Divergence(); d2 != 0 {
		t.Fatalf("divergence %v after rebase, want 0", d2)
	}
}

// demoConfig is the tuned serving demo of cmd/serve: MoE near saturation with
// its expert-popularity drift, tight enough SLO that a stale plan hurts.
func demoConfig(reschedule bool) Config {
	rc := core.DefaultRunConfig()
	rc.Batch = 32
	rc.Warmup = 40
	rc.Seed = 1
	return Config{
		Model:          "moe",
		RC:             rc,
		MaxBatch:       32,
		SLOCycles:      4_000_000,
		Reschedule:     reschedule,
		DriftThreshold: 0.02,
	}
}

// TestRescheduleBeatsStaticUnderDrift is the headline acceptance check: under
// a drifting workload at fixed seed, the drift-triggered re-scheduler must
// achieve strictly lower p99 latency AND strictly lower shed+miss counts than
// the identical server with re-scheduling disabled, fed the identical arrival
// stream.
func TestRescheduleBeatsStaticUnderDrift(t *testing.T) {
	src := func() Source { return NewSynthetic(6000, 26_000, 2, nil) }
	on := mustServe(t, demoConfig(true), src())
	off := mustServe(t, demoConfig(false), src())

	t.Logf("reschedule on:  p50=%.0f p99=%.0f shed=%d missed=%d reschedules=%d",
		on.Latency.P50, on.Latency.P99, on.Shed, on.Missed, on.Reschedules)
	t.Logf("reschedule off: p50=%.0f p99=%.0f shed=%d missed=%d",
		off.Latency.P50, off.Latency.P99, off.Shed, off.Missed)

	if on.Reschedules == 0 {
		t.Fatalf("drift never triggered a re-schedule; the demo is not exercising the controller")
	}
	if off.Reschedules != 0 {
		t.Fatalf("static server re-scheduled %d times", off.Reschedules)
	}
	if on.Latency.P99 >= off.Latency.P99 {
		t.Errorf("p99 with rescheduling %.0f not lower than static %.0f", on.Latency.P99, off.Latency.P99)
	}
	if on.Shed >= off.Shed {
		t.Errorf("shed with rescheduling %d not lower than static %d", on.Shed, off.Shed)
	}
	if on.Missed >= off.Missed {
		t.Errorf("missed with rescheduling %d not lower than static %d", on.Missed, off.Missed)
	}
}

// TestServeDeterministic replays the same seed and configuration at
// GOMAXPROCS 1 and 4: the per-request outcome log must be identical. The
// serving loop is a single-threaded discrete-event simulation, so parallelism
// of the host must not leak into results (run under -race in CI).
func TestServeDeterministic(t *testing.T) {
	run := func(procs int) *Report {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg := quickConfig("moe")
		return mustServe(t, cfg, NewSynthetic(400, 30_000, 13, workload.NewDrift(1, 0.25, 2.5, 0.05)))
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
	if serial.FinalCycles != parallel.FinalCycles || serial.Reschedules != parallel.Reschedules {
		t.Fatalf("report-level divergence: %+v vs %+v", serial, parallel)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{RC: core.DefaultRunConfig(), SLOCycles: 4000}
	c.defaults()
	if c.Design != core.DesignAdyna {
		t.Errorf("default design %q", c.Design)
	}
	if c.MaxBatch != c.RC.Batch {
		t.Errorf("default max batch %d, want RC.Batch %d", c.MaxBatch, c.RC.Batch)
	}
	if c.QueueCapSamples != 8*c.MaxBatch {
		t.Errorf("default queue cap %d", c.QueueCapSamples)
	}
	if c.MaxWaitCycles != 1000 {
		t.Errorf("default max wait %d, want SLO/4", c.MaxWaitCycles)
	}
	if c.DriftThreshold <= 0 || c.CheckEvery <= 0 || c.CooldownBatches <= 0 {
		t.Errorf("controller defaults not set: %+v", c)
	}
}

// A non-finite drift threshold is rejected at bring-up: no divergence
// reaches NaN or +Inf, so it would switch drift re-planning off silently.
func TestNonFiniteDriftThresholdRejected(t *testing.T) {
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := quickConfig("moe")
		cfg.DriftThreshold = th
		if _, err := New(cfg); err == nil {
			t.Errorf("DriftThreshold %v accepted", th)
		}
	}
}

// A non-finite plan-cache distance bound is rejected at bring-up: no
// profile distance is within NaN and every one is within +Inf, so nearest
// hits would switch off, or go unbounded, silently.
func TestNonFinitePlanCacheMaxDistRejected(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := quickConfig("moe")
		cfg.PlanCache = true
		cfg.PlanCacheNearest = true
		cfg.PlanCacheMaxDist = d
		if _, err := New(cfg); err == nil {
			t.Errorf("PlanCacheMaxDist %v accepted", d)
		}
	}
}

// TestRollupPoolsSessions: a rollup sums the session counters, takes the
// latest final clock and largest divergence, and summarizes latency over the
// pooled executed requests — shed requests excluded, percentiles over the
// union rather than averaged across sessions — leaving the reports as they
// were. An empty rollup is the zero value.
func TestRollupPoolsSessions(t *testing.T) {
	res := func(id int, arrival, done int64, o Outcome) RequestResult {
		return RequestResult{ID: id, Arrival: arrival, Done: done, Outcome: o}
	}
	a := &Report{Counters: Counters{Requests: 3, Served: 2, Shed: 1, Batches: 2, Reschedules: 1,
		ReconfigCycles: 40, FinalCycles: 900, MaxDivergence: 0.2},
		Outcomes: []RequestResult{res(0, 0, 1, Served), res(1, 0, 2, Served), res(2, 0, 0, Shed)}}
	b := &Report{Counters: Counters{Requests: 2, Served: 1, Missed: 1, Batches: 1, HealthReschedules: 2,
		PlanCacheExact: 1, PlanCacheMisses: 3, HostSolveCycles: 7, FinalCycles: 500, MaxDivergence: 0.5},
		Outcomes: []RequestResult{res(3, 10, 13, Served), res(4, 0, 100, DeadlineMissed)}}
	got := Rollup([]*Report{a, b})
	want := Counters{Requests: 5, Served: 3, Missed: 1, Shed: 1, Batches: 3, Reschedules: 1,
		HealthReschedules: 2, PlanCacheExact: 1, PlanCacheMisses: 3, ReconfigCycles: 40,
		HostSolveCycles: 7, FinalCycles: 900, MaxDivergence: 0.5,
		Latency: metrics.Summarize([]float64{1, 2, 3, 100})}
	if got != want {
		t.Fatalf("rollup %+v, want %+v", got, want)
	}
	if a.Requests != 3 || a.Latency != (metrics.Summary{}) || len(b.Outcomes) != 2 {
		t.Fatal("rollup mutated a session report")
	}
	if z := Rollup(nil); z != (Counters{}) {
		t.Fatalf("empty rollup gave %+v", z)
	}
}
