package accel

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/workload"
)

// streamWindow streams batches through m at pipeline depth 4, the way the
// pipelined serving loop does: the clock steps forward by gap before each
// submission, the oldest ticket is retired once four are in flight, and the
// window ends drained.
func streamWindow(t testing.TB, m *Machine, batches []workload.Batch, gap sim.Time) {
	t.Helper()
	const depth = 4
	var inflight []*StreamTicket
	for _, b := range batches {
		m.StepTo(m.Now() + gap)
		tk, err := m.StreamSubmit(b)
		if err != nil {
			t.Fatal(err)
		}
		inflight = append(inflight, tk)
		if len(inflight) == depth {
			if _, err := m.StreamRetire(inflight[0]); err != nil {
				t.Fatal(err)
			}
			inflight = inflight[1:]
		}
	}
	for _, tk := range inflight {
		if _, err := m.StreamRetire(tk); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.StreamDrain(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReuseMatchesGolden pins streamed execution across everything a
// job's lifetime spans: moe at depth 4 under a first plan, the same frozen
// plan degraded by a mid-stream loss of a quarter of the tiles, and a second
// plan scheduled for the surviving chip. Per-batch latencies and the final
// statistics must match the recorded golden byte for byte.
func TestStreamReuseMatchesGolden(t *testing.T) {
	cfg := hw.Default()
	w, err := models.ByName("moe", 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	trace := w.GenTrace(workload.NewSource(5), 24, 16)
	streamWindow(t, m, trace[:8], 40_000)

	failed := hw.NewTileMask(tileSeq(cfg.Tiles() / 4)...)
	if err := m.SetCapability(failed, 1, 1); err != nil {
		t.Fatal(err)
	}
	streamWindow(t, m, trace[8:16], 40_000)

	live := cfg
	live.FailedTiles = failed
	replan, err := sched.Schedule(live, w.Graph, sched.Adyna(), m.Profiler())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(replan); err != nil {
		t.Fatal(err)
	}
	streamWindow(t, m, trace[16:], 40_000)

	simtest.Golden(t, "testdata", "stream_reuse", simtest.Artifacts{
		Outcomes: simtest.Render(t, m.Latencies()),
		Snapshot: simtest.Render(t, m.Stats()),
	})
}

// TestReloadSamePlanKeepsTemplates: loading the plan that is already
// loaded, on the config it was compiled for, keeps every segment template
// and the jobs pooled in it, and the stream that follows the reload matches
// one that loads a copy of the plan, which recompiles everything.
func TestReloadSamePlanKeepsTemplates(t *testing.T) {
	// run streams two depth-4 windows with a load of next(plan) between
	// them, and reports whether that load kept each template and its pool.
	run := func(next func(*sched.Plan) *sched.Plan) (lat []BatchLatency, st Stats, kept, pooled bool) {
		m, trace := streamMachine(t, "moe", 16, 16)
		streamWindow(t, m, trace[:8], 40_000)
		before := maps.Clone(m.dags)
		if err := m.LoadPlan(next(m.plan)); err != nil {
			t.Fatal(err)
		}
		kept, pooled = true, true
		for i, d := range m.dags {
			kept = kept && d == before[i]
			pooled = pooled && len(d.free) > 0
		}
		streamWindow(t, m, trace[8:], 40_000)
		return m.Latencies(), m.Stats(), kept, pooled
	}
	sameLat, same, kept, pooled := run(func(p *sched.Plan) *sched.Plan { return p })
	if !kept || !pooled {
		t.Fatalf("same-plan reload: templates kept %v, pooled jobs kept %v; want both", kept, pooled)
	}
	cloneLat, clone, kept, _ := run((*sched.Plan).Clone)
	if kept {
		t.Fatal("loading a copy of the plan kept the old templates")
	}
	if !reflect.DeepEqual(sameLat, cloneLat) || !reflect.DeepEqual(same, clone) {
		t.Fatalf("same-plan reload diverges from a recompiling one:\n same:  %+v\n clone: %+v", same, clone)
	}
	if same.Reconfigs != 1 {
		t.Fatalf("same-plan reload charged %d reconfigurations, want 1", same.Reconfigs)
	}
}

// steadyStream streams batches through m at the given pipeline depth,
// reusing one ring of tickets so the driving loop itself allocates nothing.
func steadyStream(t testing.TB, m *Machine, batches []workload.Batch, ring []*StreamTicket) {
	depth := len(ring)
	for i, b := range batches {
		if old := ring[i%depth]; old != nil {
			if _, err := m.StreamRetire(old); err != nil {
				t.Fatal(err)
			}
		}
		tk, err := m.StreamSubmit(b)
		if err != nil {
			t.Fatal(err)
		}
		ring[i%depth] = tk
	}
	for i := range ring {
		if ring[i] != nil {
			if _, err := m.StreamRetire(ring[i]); err != nil {
				t.Fatal(err)
			}
			ring[i] = nil
		}
	}
}

// runEach runs every batch as its own one-batch Run window.
func runEach(t testing.TB, m *Machine, batches []workload.Batch) {
	for i := range batches {
		if err := m.Run(batches[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamSteadyStateAllocs gates the allocations of a warm batch on
// either entry to the machine's one driver: streamed at pipeline depth 1
// and 4, and as a one-batch Run window. Once every segment's free list
// holds enough jobs, a batch reuses them and allocates only its driver,
// ticket and process and the routing-derived unit table. Building a job
// instead costs hundreds of allocations (one store per edge, two processes
// per entity), so the bound fails the moment steady-state batches stop
// recycling.
func TestStreamSteadyStateAllocs(t *testing.T) {
	const perBatch = 16
	for _, model := range []string{"moe", "skipnet"} {
		// Depth 0 feeds one-batch Run windows; a positive depth streams.
		for _, depth := range []int{0, 1, 4} {
			m, trace := streamMachine(t, model, 32, 16)
			mode, feed := "one-batch Run", func() { runEach(t, m, trace) }
			if depth > 0 {
				ring := make([]*StreamTicket, depth)
				mode = fmt.Sprintf("streamed at depth %d", depth)
				feed = func() { steadyStream(t, m, trace, ring) }
			}
			feed() // warm the pools and the cost-model memo
			got := testing.AllocsPerRun(5, feed) / float64(len(trace))
			t.Logf("%s, %s: %.1f allocations per batch", model, mode, got)
			if got > perBatch {
				t.Errorf("%s, %s: %.1f allocations per batch, want <= %d", model, mode, got, perBatch)
			}
		}
	}
}

// A job released with a chunk still queued, or with a process still waiting
// on it, would hand stale state to the next batch that takes it: release
// panics instead.
func TestReleasedJobLeakPanics(t *testing.T) {
	m, trace := streamMachine(t, "moe", 16, 1)
	units, err := m.g.AssignUnits(trace[0].Units, trace[0].Routing)
	if err != nil {
		t.Fatal(err)
	}
	leaks := map[string]func(j *job){
		"edge chunk":   func(j *job) { j.edges[0].store.TryPut() },
		"sender chunk": func(j *job) { j.ents[0].sendQ.TryPut() },
		"done waiter":  func(j *job) { j.done.Await(m.env.NewProc("waiter", nil)) },
	}
	for name, leak := range leaks {
		j, err := m.prepareJob(m.plan.Segments[0], units, trace[0].Density)
		if err != nil {
			t.Fatal(err)
		}
		leak(j)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "accel: released job") {
					t.Errorf("%s: release of a leaking job did not panic with a leak report (got %q)", name, msg)
				}
			}()
			j.release()
		}()
	}
}
