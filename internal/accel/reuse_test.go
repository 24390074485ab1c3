package accel

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
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
// loaded, on the config it was compiled for, keeps every segment template,
// so the machine's pooled jobs stay wired to them; loading a copy of the
// plan recompiles everything, and the pool survives that load too. The
// stream that follows the reload matches one that follows the recompiling
// load.
func TestReloadSamePlanKeepsTemplates(t *testing.T) {
	// run streams two depth-4 windows with a load of next(plan) between
	// them, and reports whether that load kept each template, whether it
	// kept the machine's pool, and whether the pooled jobs are still wired
	// to the loaded templates.
	run := func(next func(*sched.Plan) *sched.Plan) (lat []BatchLatency, st Stats, kept, pooled, wired bool) {
		m, trace := streamMachine(t, "moe", 16, 16)
		streamWindow(t, m, trace[:8], 40_000)
		before, pool := maps.Clone(m.dags), slices.Clone(m.free)
		if err := m.LoadPlan(next(m.plan)); err != nil {
			t.Fatal(err)
		}
		kept = true
		for i, d := range m.dags {
			kept = kept && d == before[i]
		}
		pooled, wired = len(pool) > 0 && slices.Equal(pool, m.free), true
		for _, j := range m.free {
			wired = wired && m.dags[j.dag.seg.Index] == j.dag
		}
		streamWindow(t, m, trace[8:], 40_000)
		return m.Latencies(), m.Stats(), kept, pooled, wired
	}
	sameLat, same, kept, pooled, wired := run(func(p *sched.Plan) *sched.Plan { return p })
	if !kept || !pooled || !wired {
		t.Fatalf("same-plan reload: templates kept %v, pool kept %v, pooled jobs wired %v; want all", kept, pooled, wired)
	}
	cloneLat, clone, kept, pooled, wired := run((*sched.Plan).Clone)
	if kept || wired {
		t.Fatalf("loading a copy of the plan kept the old templates (%v) or its pooled jobs' wiring (%v)", kept, wired)
	}
	if !pooled {
		t.Fatal("loading a copy of the plan dropped the machine's pool")
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
// and 4, and as a one-batch Run window. Once the machine's pool holds
// enough jobs, a batch reuses them and allocates only its driver,
// ticket, window slice and process. Building a job
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
			feed() // warm the machine's job pool
			got := testing.AllocsPerRun(5, feed) / float64(len(trace))
			t.Logf("%s, %s: %.1f allocations per batch", model, mode, got)
			if got > perBatch {
				t.Errorf("%s, %s: %.1f allocations per batch, want <= %d", model, mode, got, perBatch)
			}
		}
	}
}

// TestRunWindowAllocsFlat gates what a warm Run window allocates per batch:
// a 40-batch window allocates no more objects than a one-batch window plus
// a constant. The window's unit counts share one array, reused across
// windows, and its jobs come from the machine's pool, so nothing is built
// per batch.
func TestRunWindowAllocsFlat(t *testing.T) {
	const slack = 8
	for _, model := range []string{"moe", "skipnet"} {
		m, trace := streamMachine(t, model, 32, 40)
		window := func(n int) func() {
			return func() {
				if err := m.Run(trace[:n]); err != nil {
					t.Fatal(err)
				}
			}
		}
		window(len(trace))() // warm the machine's job pool
		one := testing.AllocsPerRun(5, window(1))
		all := testing.AllocsPerRun(5, window(len(trace)))
		t.Logf("%s: %.0f allocations for one batch, %.0f for %d", model, one, all, len(trace))
		if all > one+slack {
			t.Errorf("%s: a %d-batch window allocates %.0f objects, a one-batch window %.0f: want at most %d more",
				model, len(trace), all, one, slack)
		}
	}
}

// TestUnseenBatchAllocBytes gates the bytes a warm machine allocates per
// one-batch Run window over batches it has not run before. The object gates
// above replay batches the machine has seen, and count objects, so neither
// sees a table that grows with each new dyn value or density. After 16
// warm-up batches, 128 new batches of the same trace must each allocate at
// most 512 bytes: the few objects every warm window allocates, and nothing
// that scales with the entities costed.
func TestUnseenBatchAllocBytes(t *testing.T) {
	const warm, measured, perBatch = 16, 128, 512
	for _, model := range []string{"moe", "skipnet", "gcn", "dpsnet"} {
		m, trace := streamMachine(t, model, 32, warm+measured)
		runEach(t, m, trace[:warm])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runEach(t, m, trace[warm:])
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / measured
		t.Logf("%s: %d bytes per unseen batch", model, got)
		if got > perBatch {
			t.Errorf("%s: %d bytes per unseen one-batch window, want <= %d", model, got, perBatch)
		}
	}
}

// A job released with a chunk still queued, or with a process still waiting
// on it, would hand stale state to the next batch that takes it: release
// panics instead.
func TestReleasedJobLeakPanics(t *testing.T) {
	m, trace := streamMachine(t, "moe", 16, 1)
	units, err := m.g.AssignUnits(nil, trace[0].Units, trace[0].Routing)
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

// TestRewiredShellNamesItsOperators: a pooled job rewired to another
// segment's template takes that template's operator names, so a stall in
// it names the operators that are stuck, not the ones the shell last ran.
func TestRewiredShellNamesItsOperators(t *testing.T) {
	m, trace := streamMachine(t, "moe", 16, 1)
	if err := m.Run(trace); err != nil {
		t.Fatal(err)
	}
	seg := m.plan.Segments[0]
	if top := m.free[len(m.free)-1]; top.dag == m.dags[seg.Index] {
		t.Fatalf("the next pooled job is already wired to segment %d; the check needs a rewire", seg.Index)
	}
	units, err := m.g.AssignUnits(nil, trace[0].Units, trace[0].Routing)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.prepareJob(seg, units, trace[0].Density)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the first entity's stage token: the job can never start.
	if !j.dag.ents[0].tok.Get(m.env.NewProc("holder", nil)) {
		t.Fatal("stage token already taken")
	}
	m.spawnJob(j)
	m.env.Run()
	want := map[string]bool{}
	for _, de := range j.dag.ents {
		want[m.g.Op(de.lead).Name] = true
		want[m.niNames[de.lead]] = true
	}
	// Every entity but the first took its own token and started its sender
	// before stalling on its inputs.
	blocked := m.env.BlockedProcs()
	if n := 2*len(j.ents) - 1; len(blocked) != n {
		t.Fatalf("%d processes blocked, want the job's %d: %v", len(blocked), n, blocked)
	}
	for _, name := range blocked {
		if !want[name] {
			t.Errorf("blocked process %q is not an operator of segment %d", name, seg.Index)
		}
	}
}
