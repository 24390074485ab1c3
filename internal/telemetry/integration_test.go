package telemetry_test

// Integration tests of the telemetry layer against the real simulation
// stack: golden trace bytes at a fixed seed, byte-determinism across worker
// counts and GOMAXPROCS, and category coverage of a drifting, faulty serving
// run. They live in an external test package because internal/core and
// internal/serve import telemetry.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_trace.json")

// smallRC is the smallest complete machine run: one measured single-sample
// skipnet batch, enough to exercise kernel, NoC, HBM and plan events while
// keeping the golden trace file reviewably small.
func smallRC(seed int64) core.RunConfig {
	rc := core.DefaultRunConfig()
	rc.Batch = 1
	rc.Batches = 1
	rc.Warmup = 1
	rc.Seed = seed
	return rc
}

// traceBytes runs one traced simulation and returns the trace file bytes.
func traceBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	rc := smallRC(seed)
	rc.Trace = telemetry.NewTrace()
	setup, err := core.Bringup(core.DesignAdyna, "skipnet", rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.M.Run(setup.W.GenTrace(setup.Src, rc.Batches, rc.Batch)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rc.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrace locks the canonical trace bytes of a fixed-seed run. Any
// change to event content, ordering, or JSON encoding shows up as a byte
// diff; regenerate deliberately with
//
//	go test ./internal/telemetry -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	got := traceBytes(t, 7)
	if _, err := telemetry.Validate(bytes.NewReader(got)); err != nil {
		t.Fatalf("generated trace does not validate: %v", err)
	}

	path := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace drifted from golden bytes (%d vs %d bytes); regenerate with -update if intentional", len(got), len(want))
	}

	// Perturbation check: the golden comparison has teeth only if a changed
	// input actually changes the bytes.
	if bytes.Equal(traceBytes(t, 8), want) {
		t.Fatal("trace bytes identical across different seeds; golden test is vacuous")
	}
}

// TestTraceDeterminismAcrossWorkers runs the same design set through
// core.RunJobs serially and with a worker pool, at different GOMAXPROCS,
// and requires byte-identical merged trace files. This is the contract that
// makes -trace safe on cmd/experiments: recorder registration order is racy
// under the pool, and only the writer's name ordering hides that.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	designs := []core.Design{core.DesignMTile, core.DesignAdyna}
	runOnce := func(workers, maxprocs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		rc := smallRC(3)
		rc.Trace = telemetry.NewTrace()
		jobs := make([]core.Job, len(designs))
		for i, d := range designs {
			jobs[i] = core.Job{Design: d, Model: "skipnet", RC: rc}
		}
		if _, err := core.RunJobs(workers, jobs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rc.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runOnce(runner.Serial, 1)
	pooled := runOnce(4, 4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("trace bytes differ between serial/GOMAXPROCS=1 (%d bytes) and 4 workers/GOMAXPROCS=4 (%d bytes)",
			len(serial), len(pooled))
	}
	if _, err := telemetry.Validate(bytes.NewReader(serial)); err != nil {
		t.Fatal(err)
	}
}

// TestServeTraceCoversAllCategories drives the full serving stack — drifting
// MoE arrivals, a mid-stream tile failure, drift- and fault-triggered
// re-planning — and checks every event family the tentpole promises shows up
// in one validated trace: kernel execution, NoC transfers, HBM traffic, plan
// loads, serve-side batches, drift evaluations, a reschedule, and fault
// capability events.
func TestServeTraceCoversAllCategories(t *testing.T) {
	fs := &faults.Schedule{Events: []faults.Event{
		{At: 2_000_000, Kind: faults.TileFail, Tiles: []int{0, 1, 2, 3}},
	}}
	rc := core.DefaultRunConfig()
	rc.Batch = 8
	rc.Warmup = 10
	rc.Seed = 1
	rc.Trace = telemetry.NewTrace()
	cfg := serve.Config{
		Model:           "moe",
		RC:              rc,
		MaxBatch:        8,
		SLOCycles:       4_000_000,
		Faults:          fs,
		Reschedule:      true,
		DriftThreshold:  0.001, // trip on any drift so the test sees a reschedule
		CheckEvery:      4,
		CooldownBatches: 8,
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(serve.NewSynthetic(250, 40_000, 2, nil)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rc.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"kernel", "noc", "hbm", "plan", "batch", "serve", "drift", "fault"} {
		if st.Categories[cat] == 0 {
			t.Errorf("category %q missing from serve trace (got %v)", cat, st.Categories)
		}
	}
	names := map[string]int{}
	for _, rec := range rc.Trace.Recorders() {
		for _, e := range rec.Events() {
			names[e.Name]++
		}
	}
	for _, name := range []string{"drift-eval", "reschedule", "capability", "health-reschedule", "queue_depth"} {
		if names[name] == 0 {
			t.Errorf("event %q missing from serve trace", name)
		}
	}

	snap := s.Snapshot()
	if snap.Counters["reschedules"] == 0 {
		t.Error("snapshot shows no drift reschedules despite a near-zero threshold")
	}
	if snap.Counters["fault_events"] == 0 {
		t.Error("snapshot shows no fault events despite a scheduled tile failure")
	}
	if snap.Counters["machine_cycles"] <= 0 || snap.Counters["requests_total"] != 250 {
		t.Errorf("snapshot counters implausible: %+v", snap.Counters)
	}
}

// TestDisabledTraceKeepsOutcomesIdentical is the no-overhead guarantee from
// the serving side: the per-request outcome log with tracing on must be
// identical to the log with tracing off (recording must never perturb
// simulated time).
func TestDisabledTraceKeepsOutcomesIdentical(t *testing.T) {
	runServe := func(tr *telemetry.Trace) *serve.Report {
		rc := core.DefaultRunConfig()
		rc.Batch = 8
		rc.Warmup = 8
		rc.Seed = 5
		rc.Trace = tr
		cfg := serve.Config{
			Model: "skipnet", RC: rc, MaxBatch: 8, SLOCycles: 3_000_000,
			Reschedule: true, DriftThreshold: 0.02, CheckEvery: 8, CooldownBatches: 16,
		}
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Serve(serve.NewSynthetic(120, 50_000, 4, nil))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	traced := runServe(telemetry.NewTrace())
	plain := runServe(nil)
	if len(traced.Outcomes) != len(plain.Outcomes) {
		t.Fatalf("outcome counts differ: traced %d vs plain %d", len(traced.Outcomes), len(plain.Outcomes))
	}
	for i := range traced.Outcomes {
		if traced.Outcomes[i] != plain.Outcomes[i] {
			t.Fatalf("outcome %d differs with tracing on: %+v vs %+v", i, traced.Outcomes[i], plain.Outcomes[i])
		}
	}
	if strings.TrimSpace(traced.String()) != strings.TrimSpace(plain.String()) {
		t.Fatal("serving reports differ between traced and untraced runs")
	}
}
