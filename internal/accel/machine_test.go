package accel

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runModel schedules and simulates a model under a policy, optionally
// re-scheduling every period batches (0 = never).
func runModel(t testing.TB, name string, pol sched.Policy, batch, nBatches, period int, opts Options) Stats {
	t.Helper()
	cfg := hw.Default()
	w, err := models.ByName(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, pol, m.Profiler())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(11)
	trace := w.GenTrace(src, nBatches, batch)
	if period <= 0 {
		period = nBatches
	}
	for start := 0; start < nBatches; start += period {
		end := start + period
		if end > nBatches {
			end = nBatches
		}
		if start > 0 {
			plan, err := sched.Schedule(cfg, w.Graph, pol, m.Profiler())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadPlan(plan); err != nil {
				t.Fatal(err)
			}
			m.Profiler().Reset()
		}
		if err := m.Run(trace[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	return m.Stats()
}

func TestMachineRunsSkipNet(t *testing.T) {
	st := runModel(t, "skipnet", sched.Adyna(), 32, 4, 0, Options{})
	if st.Cycles <= 0 || st.Batches != 4 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.MACs < st.UsefulMACs {
		t.Fatalf("issued MACs %d below useful %d", st.MACs, st.UsefulMACs)
	}
	if st.HBMBytes == 0 || st.NoCByteHops == 0 || st.SRAMBytes == 0 {
		t.Fatalf("traffic counters empty: %+v", st)
	}
}

func TestAdynaBeatsMTile(t *testing.T) {
	// The headline result at small scale: dynamism-aware multi-kernel
	// execution outruns worst-case static scheduling.
	mt := runModel(t, "skipnet", sched.MTile(), 32, 6, 0, Options{})
	ad := runModel(t, "skipnet", sched.Adyna(), 32, 6, 0, Options{})
	speedup := float64(mt.Cycles) / float64(ad.Cycles)
	if speedup <= 1.05 {
		t.Fatalf("Adyna speedup over M-tile = %.2f, expected clearly > 1", speedup)
	}
	if speedup > 4 {
		t.Fatalf("Adyna speedup %.2f implausibly high at this scale", speedup)
	}
	// M-tile executes the padded worst case, so it issues more MACs.
	if mt.MACs <= ad.MACs {
		t.Fatalf("M-tile should waste MACs: %d vs %d", mt.MACs, ad.MACs)
	}
}

func TestFullKernelUpperBound(t *testing.T) {
	ad := runModel(t, "skipnet", sched.Adyna(), 32, 5, 0, Options{})
	fk := runModel(t, "skipnet", sched.FullKernelIdeal(), 32, 5, 0, Options{})
	if fk.Cycles > ad.Cycles {
		t.Fatalf("full-kernel (%d cyc) must not be slower than sampled kernels (%d cyc)",
			fk.Cycles, ad.Cycles)
	}
	ratio := float64(fk.Cycles) / float64(ad.Cycles)
	if ratio < 0.5 {
		t.Fatalf("sampled kernels only reach %.0f%% of full-kernel; paper reports ~87%%", ratio*100)
	}
}

func TestAllModelsSimulate(t *testing.T) {
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			st := runModel(t, name, sched.Adyna(), 16, 3, 0, Options{})
			if st.Cycles <= 0 || st.Batches != 3 {
				t.Fatalf("%s: %+v", name, st)
			}
		})
	}
}

func TestReconfigurationCharged(t *testing.T) {
	st := runModel(t, "skipnet", sched.Adyna(), 16, 8, 4, Options{})
	if st.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", st.Reconfigs)
	}
	if st.ReconfigCycles <= 0 {
		t.Fatal("reconfiguration must cost cycles")
	}
	// Paper: reconfiguration overhead stays small at a sane period.
	if float64(st.ReconfigCycles) > 0.2*float64(st.Cycles) {
		t.Fatalf("reconfig overhead %.1f%% implausibly high",
			100*float64(st.ReconfigCycles)/float64(st.Cycles))
	}
}

func TestOnlineSchedulingLatencyHurts(t *testing.T) {
	base := runModel(t, "skipnet", sched.FullKernelIdeal(), 16, 4, 0, Options{})
	slow := runModel(t, "skipnet", sched.FullKernelIdeal(), 16, 4, 0,
		Options{OnlineSchedLatencyCycles: 400_000}) // 0.4 ms at 1 GHz
	if slow.Cycles <= base.Cycles {
		t.Fatal("online scheduling latency must slow execution down")
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := hw.Default()
	w, err := models.ByName("skipnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), m.Profiler())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(3)
	if err := m.Run(w.GenTrace(src, 4, 32)); err != nil {
		t.Fatal(err)
	}
	pe, bw := m.PEUtilization(), m.HBMUtilization()
	if pe <= 0 || pe > 1 {
		t.Fatalf("PE utilization %v out of (0,1]", pe)
	}
	if bw <= 0 || bw > 1 {
		t.Fatalf("HBM utilization %v out of (0,1]", bw)
	}
}

func TestRunWithoutPlanFails(t *testing.T) {
	cfg := hw.Default()
	w, _ := models.ByName("skipnet", 8)
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(nil); err == nil {
		t.Fatal("Run without a plan must fail")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	a := runModel(t, "pabee", sched.Adyna(), 16, 3, 0, Options{})
	b := runModel(t, "pabee", sched.Adyna(), 16, 3, 0, Options{})
	if a.Cycles != b.Cycles || a.MACs != b.MACs || a.HBMBytes != b.HBMBytes {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestMultiSegmentModelRuns(t *testing.T) {
	// PABEE spans several segments; weights reload per segment per batch,
	// so HBM traffic must dominate far beyond the activation footprint.
	st := runModel(t, "pabee", sched.MTile(), 16, 3, 0, Options{})
	if st.HBMBytes < 3*170<<20 {
		t.Fatalf("PABEE weights should stream repeatedly: only %d HBM bytes", st.HBMBytes)
	}
}

func BenchmarkSimulateSkipNetBatch(b *testing.B) {
	cfg := hw.Default()
	w, err := models.ByName("skipnet", 32)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), m.Profiler())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		b.Fatal(err)
	}
	src := workload.NewSource(1)
	trace := w.GenTrace(src, b.N, 32)
	b.ResetTimer()
	if err := m.Run(trace); err != nil {
		b.Fatal(err)
	}
}

func TestBatchLatenciesRecorded(t *testing.T) {
	cfg := hw.Default()
	w, err := models.ByName("skipnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), m.Profiler())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	src := workload.NewSource(2)
	if err := m.Run(w.GenTrace(src, 6, 16)); err != nil {
		t.Fatal(err)
	}
	lats := m.Latencies()
	if len(lats) != 6 {
		t.Fatalf("recorded %d latencies, want 6", len(lats))
	}
	for i, l := range lats {
		if l.Cycles() <= 0 {
			t.Fatalf("batch %d latency %d not positive", i, l.Cycles())
		}
		if l.Done > sim.Time(m.Stats().Cycles) {
			t.Fatalf("batch %d completed after the run ended", i)
		}
		if i > 0 && l.Done < lats[i-1].Done {
			t.Fatalf("batch completions out of order at %d", i)
		}
	}
	// Later batches in a window wait behind earlier ones.
	if lats[5].Cycles() <= lats[0].Cycles() {
		t.Fatal("queueing should grow window-relative latency")
	}
}

func TestEmptyTraceRun(t *testing.T) {
	cfg := hw.Default()
	w, _ := models.ByName("skipnet", 8)
	m, err := New(cfg, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.MTile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(nil); err != nil {
		t.Fatalf("empty trace must be a no-op: %v", err)
	}
	if m.Stats().Batches != 0 {
		t.Fatal("no batches should be counted")
	}
}

func TestBatchSizeOneRuns(t *testing.T) {
	st := runModel(t, "skipnet", sched.Adyna(), 1, 4, 0, Options{})
	if st.Batches != 4 || st.Cycles <= 0 {
		t.Fatalf("batch-1 stats: %+v", st)
	}
}

func TestSingleEntityGraph(t *testing.T) {
	// The degenerate case: one compute op, no dynamism.
	cfg := hw.Default()
	b := graph.NewBuilder("one", 1)
	in := b.Input("in", 256, 8)
	fc := b.MatMul("fc", in, 128, 128)
	b.Output("o", fc)
	g := b.MustBuild()
	m, err := New(cfg, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, g, sched.Adyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	batches := []workload.Batch{{Index: 0, Units: 8, Routing: graph.BatchRouting{}}}
	if err := m.Run(batches); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Cycles <= 0 {
		t.Fatal("single-entity graph produced no time")
	}
}

// TestMachineRunSpawnsNoGoroutines: the machine's processes are state
// machines on the event queue, not goroutines. A sampler running inside
// events, while a window runs and while streamed batches are in flight,
// dumps every goroutine's stack and finds none but its own with a frame in
// internal/sim or internal/accel. Unrelated goroutines coming and going
// (the runtime's, the testing package's) cannot affect the check.
func TestMachineRunSpawnsNoGoroutines(t *testing.T) {
	type peak struct {
		live    int
		foreign []string // the first offending sample's other machine goroutines
	}
	// sampleDuring schedules a sampler on m's event queue that re-arms
	// itself while any process is live, recording what it sees.
	sampleDuring := func(m *Machine) *peak {
		pk := new(peak)
		var sample func()
		sample = func() {
			if len(pk.foreign) == 0 {
				pk.foreign = machineGoroutines()
			}
			if live := m.env.Live(); live > 0 {
				pk.live = max(pk.live, live)
				m.env.Schedule(5000, sample)
			}
		}
		m.env.Schedule(0, sample)
		return pk
	}
	check := func(what string, pk *peak) {
		t.Helper()
		if pk.live < 2 {
			t.Fatalf("%s: sampler saw at most %d live processes, want work in flight", what, pk.live)
		}
		if len(pk.foreign) > 0 {
			t.Fatalf("%s: %d other goroutines run machine code with up to %d live processes; first:\n%s",
				what, len(pk.foreign), pk.live, pk.foreign[0])
		}
	}

	m, trace := streamMachine(t, "skipnet", 16, 6)
	pk := sampleDuring(m)
	if err := m.Run(trace); err != nil {
		t.Fatal(err)
	}
	check("Run", pk)

	m, trace = streamMachine(t, "skipnet", 16, 6)
	for _, b := range trace {
		if _, err := m.StreamSubmit(b); err != nil {
			t.Fatal(err)
		}
	}
	pk = sampleDuring(m)
	if err := m.StreamDrain(); err != nil {
		t.Fatal(err)
	}
	check("stream", pk)
}

// machineGoroutines returns the stack of every goroutine but the caller's
// that has a frame in internal/sim or internal/accel.
func machineGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The dump lists the caller's goroutine first, then one blank-line
	// separated block per other goroutine.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "repro/internal/sim.") || strings.Contains(g, "repro/internal/accel.") {
			out = append(out, g)
		}
	}
	return out
}

// TestDeadlockNamesBlockedProcesses: a process left blocked after the
// event queue drains fails Run and StreamDrain with an error that names it.
func TestDeadlockNamesBlockedProcesses(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		m, trace := streamMachine(t, "skipnet", 16, 2)
		starved := sim.NewStore(m.env, 0)
		m.env.Spawn("starved-reader", func(p *sim.Proc) bool {
			return starved.Get(p) // never fed
		})
		var err error
		if streamed {
			if _, err = m.StreamSubmit(trace[0]); err != nil {
				t.Fatal(err)
			}
			err = m.StreamDrain()
		} else {
			err = m.Run(trace)
		}
		if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "starved-reader") {
			t.Fatalf("streamed=%v: error %v does not name the blocked process", streamed, err)
		}
	}
}
