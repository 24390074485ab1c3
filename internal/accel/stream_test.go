package accel

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// streamMachine brings up a machine with a freshly scheduled plan and the
// trace of batches the test will feed it.
func streamMachine(t testing.TB, model string, batch, nBatches int) (*Machine, []workload.Batch) {
	t.Helper()
	cfg := hw.Default()
	w, err := models.ByName(model, batch)
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
	return m, w.GenTrace(workload.NewSource(11), nBatches, batch)
}

// TestStreamPipelinesBatches submits a window of batches back to back and
// checks the streaming machinery end to end: tickets resolve in virtual
// time, per-batch records land, consecutive batches genuinely overlap
// (batch k+1 starts before batch k completes), and the batch accounting
// matches what Run would charge for the same trace.
func TestStreamPipelinesBatches(t *testing.T) {
	const n = 6
	m, trace := streamMachine(t, "skipnet", 16, n)
	var tks []*StreamTicket
	for _, b := range trace {
		tk, err := m.StreamSubmit(b)
		if err != nil {
			t.Fatalf("StreamSubmit: %v", err)
		}
		tks = append(tks, tk)
	}
	for i, tk := range tks {
		done, err := m.StreamRetire(tk)
		if err != nil {
			t.Fatalf("StreamRetire(%d): %v", i, err)
		}
		if done <= tk.Start() {
			t.Fatalf("batch %d: done %d not after start %d", i, done, tk.Start())
		}
		if !tk.Done() {
			t.Fatalf("batch %d: ticket not done after retire", i)
		}
	}
	if err := m.StreamDrain(); err != nil {
		t.Fatalf("StreamDrain: %v", err)
	}
	lat := m.Latencies()
	if len(lat) != n {
		t.Fatalf("got %d latency records, want %d", len(lat), n)
	}
	overlaps := 0
	for i := 1; i < len(lat); i++ {
		if lat[i].Start < lat[i-1].Done {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Fatalf("no streamed batch overlapped its predecessor")
	}
	st := m.Stats()
	if st.Batches != n {
		t.Fatalf("stats counted %d batches, want %d", st.Batches, n)
	}

	// Run charges the same useful work for the same trace (execution order
	// differs — segment-major vs batch-major — but the work does not).
	m2, trace2 := streamMachine(t, "skipnet", 16, n)
	if err := m2.Run(trace2); err != nil {
		t.Fatal(err)
	}
	if got, want := st.UsefulMACs, m2.Stats().UsefulMACs; got != want {
		t.Fatalf("streamed useful MACs %d != Run's %d", got, want)
	}
}

// TestStreamDeterministic pins the streamed schedule: two identical
// submit/retire sequences produce identical per-batch latency records and
// identical statistics.
func TestStreamDeterministic(t *testing.T) {
	run := func() ([]BatchLatency, Stats) {
		m, trace := streamMachine(t, "moe", 16, 5)
		for _, b := range trace {
			if _, err := m.StreamSubmit(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.StreamDrain(); err != nil {
			t.Fatal(err)
		}
		return m.Latencies(), m.Stats()
	}
	lat1, st1 := run()
	lat2, st2 := run()
	if !reflect.DeepEqual(lat1, lat2) {
		t.Fatalf("latency records diverge:\n%v\n%v", lat1, lat2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverge:\n%+v\n%+v", st1, st2)
	}
}

// TestStreamStepToBoundsProgress checks the bounded-advance primitive: a
// StepTo below the batch's completion leaves the ticket unresolved with the
// clock exactly at the horizon; a later retire completes it.
func TestStreamStepToBoundsProgress(t *testing.T) {
	m, trace := streamMachine(t, "skipnet", 16, 1)
	tk, err := m.StreamSubmit(trace[0])
	if err != nil {
		t.Fatal(err)
	}
	m.StepTo(10)
	if tk.Done() {
		t.Fatalf("batch completed within 10 cycles")
	}
	if now := m.Now(); now != 10 {
		t.Fatalf("clock at %d after StepTo(10)", now)
	}
	done, err := m.StreamRetire(tk)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 10 {
		t.Fatalf("completion %d not past the stepped horizon", done)
	}
	if err := m.StreamDrain(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRequiresPlan: submitting with no plan loaded fails cleanly.
func TestStreamRequiresPlan(t *testing.T) {
	w, err := models.ByName("skipnet", 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(hw.Default(), w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StreamSubmit(workload.Batch{}); err == nil {
		t.Fatal("StreamSubmit succeeded with no plan loaded")
	}
}

// TestStreamOneBatchMatchesRun: a batch submitted and retired alone must be
// indistinguishable from a single-batch Run window — same clock, statistics,
// latency records and machine trace — on multi-segment plans, where Run
// fetches each segment's weights while the previous segment computes.
func TestStreamOneBatchMatchesRun(t *testing.T) {
	for _, model := range []string{"skipnet", "moe"} {
		t.Run(model, func(t *testing.T) {
			type result struct {
				clocks []sim.Time
				stats  Stats
				lat    []BatchLatency
				trace  []byte
			}
			run := func(stream bool) result {
				m, trace := streamMachine(t, model, 16, 4)
				if n := len(m.plan.Segments); n < 2 {
					t.Fatalf("%s plan has %d segment(s); the check needs several", model, n)
				}
				tr := telemetry.NewTrace()
				m.SetRecorder(tr.Recorder("machine"))
				var r result
				for _, b := range trace {
					if stream {
						tk, err := m.StreamSubmit(b)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := m.StreamRetire(tk); err != nil {
							t.Fatal(err)
						}
					} else if err := m.Run([]workload.Batch{b}); err != nil {
						t.Fatal(err)
					}
					r.clocks = append(r.clocks, m.Now())
				}
				var buf bytes.Buffer
				if err := tr.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				r.stats, r.lat, r.trace = m.Stats(), m.Latencies(), buf.Bytes()
				return r
			}
			ran, streamed := run(false), run(true)
			if !reflect.DeepEqual(ran.clocks, streamed.clocks) {
				t.Errorf("clock after each batch: Run %v, stream %v", ran.clocks, streamed.clocks)
			}
			if ran.stats != streamed.stats {
				t.Errorf("stats diverge:\nRun    %+v\nstream %+v", ran.stats, streamed.stats)
			}
			if !reflect.DeepEqual(ran.lat, streamed.lat) {
				t.Errorf("latency records diverge:\nRun    %v\nstream %v", ran.lat, streamed.lat)
			}
			if !bytes.Equal(ran.trace, streamed.trace) {
				t.Errorf("machine traces diverge (%d vs %d bytes)", len(ran.trace), len(streamed.trace))
			}
		})
	}
}
