package serve

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/sim/simtest"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// serveArtifacts runs one serving scenario end to end and captures the full
// determinism surface: the outcome report, the counters snapshot, and — when
// trace is set — the validated telemetry JSON.
func serveArtifacts(t *testing.T, cfg Config, src Source, trace bool) simtest.Artifacts {
	t.Helper()
	var tr *telemetry.Trace
	if trace {
		tr = telemetry.NewTrace()
		cfg.RC.Trace = tr
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Serve(src)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return simtest.Artifacts{
		Outcomes: simtest.Render(t, rep),
		Snapshot: simtest.Render(t, s.Snapshot()),
		Trace:    simtest.TraceBytes(t, tr),
	}
}

// burstConfig is a load level where batches queue back to back, so batch
// pipelining has something to overlap.
func burstConfig(model string, depth int) Config {
	rc := core.DefaultRunConfig()
	rc.Batch = 16
	rc.Warmup = 8
	cfg := Config{
		Model:         model,
		RC:            rc,
		MaxBatch:      16,
		SLOCycles:     8_000_000,
		PipelineDepth: depth,
	}
	return cfg
}

// TestPipelinedBatchesKeepDensity: every batch is stamped with its density
// at any pipeline depth, whether the density is drawn at formation
// (synthetic traffic) or carried by a replayed request. Under a constant
// sparse density the profiler's density mean must stay exactly that density
// at depth 4 as at depth 1; a batch submitted without its density would be
// profiled, and costed, as dense.
func TestPipelinedBatchesKeepDensity(t *testing.T) {
	const density = 0.3
	constant := func(g workload.TraceGen) workload.TraceGen {
		fd, err := workload.NewFixedDensities(g, []float64{density})
		if err != nil {
			panic(err)
		}
		return fd
	}
	w, err := models.ByName("gcn", 16)
	if err != nil {
		t.Fatal(err)
	}
	recorded := w.GenTrace(workload.NewSource(11), 12, 16)
	for i := range recorded {
		recorded[i].Density = density
	}
	sources := map[string]func() Source{
		"synthetic": func() Source { return NewSynthetic(160, 30_000, 9, nil) },
		"replay": func() Source {
			src, err := NewReplay(w.Graph, workload.Record(w.Graph, "gcn", 16, 11, recorded), 30_000, 2)
			if err != nil {
				t.Fatal(err)
			}
			return src
		},
	}
	for name, src := range sources {
		for _, depth := range []int{1, 4} {
			cfg := burstConfig("gcn", depth)
			cfg.RC.WrapGen = constant
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, err := s.Serve(src()); err != nil {
				t.Fatalf("Serve: %v", err)
			}
			if got := s.setup.M.Profiler().OpDensityMean(); math.Abs(got-density) > 1e-9 {
				t.Errorf("%s at depth %d: profiled density mean %.6f, want %.1f", name, depth, got, density)
			}
		}
	}
}

// TestPipelineDeterministicAcrossGOMAXPROCS pins the pipelined loop to the
// repo's headline guarantee: identical runs at any host parallelism produce
// byte-identical artifacts, traces included.
func TestPipelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	src := func() Source { return NewSynthetic(160, 30_000, 9, nil) }
	ref := serveArtifacts(t, burstConfig("skipnet", 4), src(), true)
	for _, procs := range []int{1, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		got := serveArtifacts(t, burstConfig("skipnet", 4), src(), true)
		runtime.GOMAXPROCS(old)
		simtest.Diff(t, fmt.Sprintf("GOMAXPROCS=%d", procs), ref, got)
	}
}

// TestPipelineOverlapsBatches is the point of the feature: under bursty load
// a depth-4 server must start batch k+1 before batch k completes (visible in
// the machine's per-batch latency records) and finish the whole stream
// strictly earlier than a depth-1 server on the same arrivals, which never
// overlaps two batches.
func TestPipelineOverlapsBatches(t *testing.T) {
	src := func() Source { return NewSynthetic(200, 15_000, 3, nil) }

	run := func(depth int) (*Report, []accel.BatchLatency) {
		s, err := New(burstConfig("skipnet", depth))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rep, err := s.Serve(src())
		if err != nil {
			t.Fatalf("Serve(depth=%d): %v", depth, err)
		}
		return rep, s.Setup().M.Latencies()
	}
	serial, seqLat := run(1)
	piped, pipeLat := run(4)

	overlaps := 0
	for i := 1; i < len(pipeLat); i++ {
		if pipeLat[i].Start < pipeLat[i-1].Done {
			overlaps++
		}
	}
	t.Logf("depth 1: final=%d batches=%d; depth 4: final=%d batches=%d, %d/%d batch starts overlap the predecessor",
		serial.FinalCycles, serial.Batches, piped.FinalCycles, piped.Batches, overlaps, len(pipeLat)-1)
	if overlaps == 0 {
		t.Fatalf("no batch ever overlapped its predecessor (depth=4)")
	}
	if piped.FinalCycles >= serial.FinalCycles {
		t.Fatalf("pipelining did not shorten the stream: depth-4 final %d >= depth-1 final %d",
			piped.FinalCycles, serial.FinalCycles)
	}
	for i := 1; i < len(seqLat); i++ {
		if seqLat[i].Start < seqLat[i-1].Done {
			t.Fatalf("depth 1 overlapped batches %d and %d", i-1, i)
		}
	}
}

// TestPipelineAccountsEveryRequest checks outcome conservation under
// pipelining: every request gets exactly one terminal outcome, and the
// counters sum.
func TestPipelineAccountsEveryRequest(t *testing.T) {
	cfg := burstConfig("moe", 3)
	rep := mustServe(t, cfg, NewSynthetic(240, 20_000, 5, nil))
	if rep.Requests != 240 {
		t.Fatalf("accounted %d of 240 requests", rep.Requests)
	}
	if got := rep.Served + rep.Missed + rep.Shed; got != rep.Requests {
		t.Fatalf("outcome counters %d don't sum to requests %d", got, rep.Requests)
	}
	seen := map[int]bool{}
	for _, o := range rep.Outcomes {
		if seen[o.ID] {
			t.Fatalf("request %d recorded twice", o.ID)
		}
		seen[o.ID] = true
	}
}

// TestPipelineDrainsAtReplanAndFaultBoundaries exercises the two forced
// drain points — drift re-plans (LoadPlan needs an empty pipeline) and
// capability changes (faults apply between batches) — in one pipelined run
// with rescheduling, a shared drifting profile, and a mid-stream tile loss,
// then pins the whole thing with a repeat-run byte-identity check.
func TestPipelineDrainsAtReplanAndFaultBoundaries(t *testing.T) {
	mk := func() Config {
		cfg := burstConfig("skipnet", 4)
		cfg.RC.Batch = 8
		cfg.MaxBatch = 8
		cfg.Reschedule = true
		cfg.DriftThreshold = 0.02
		cfg.CheckEvery = 4
		cfg.CooldownBatches = 8
		cfg.Faults = &faults.Schedule{Events: []faults.Event{
			{At: 2_000_000, Kind: faults.TileFail, Tiles: tileRange(0, 24)},
		}}
		return cfg
	}
	src := func() Source { return NewSynthetic(220, 25_000, 11, nil) }

	s, err := New(mk())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Serve(src())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if rep.FaultEvents == 0 {
		t.Fatalf("fault schedule never applied")
	}
	if rep.HealthReschedules == 0 {
		t.Fatalf("tile loss never triggered a health re-schedule")
	}
	if got := rep.Served + rep.Missed + rep.Shed; got != rep.Requests || rep.Requests != 220 {
		t.Fatalf("conservation broke: %d outcomes over %d requests (want 220)", got, rep.Requests)
	}

	a := serveArtifacts(t, mk(), src(), false)
	b := serveArtifacts(t, mk(), src(), false)
	simtest.Diff(t, "pipelined fault+drift repeat", a, b)
}
