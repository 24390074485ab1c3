package accel

// End-to-end machine benchmark tracked in BENCH_hotpath.json: one iteration
// simulates a full batch window of SkipNet under the Adyna policy — the
// workload `cmd/experiments -exp fig9` runs thirty times per model. This is
// the number the hot-path issue gates on: allocs/op and ns/op must both drop
// against the seed engine.

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkMachineRun simulates 8 batches of 32 samples through a freshly
// scheduled SkipNet machine per iteration.
func BenchmarkMachineRun(b *testing.B) {
	benchmarkMachineRun(b, hw.Default())
}

// BenchmarkMachineRunMasked is BenchmarkMachineRun on a machine that owns
// only the upper half of the chip — the partition-mask shape every mtserve
// tenant runs on, where each live tile index has to be translated to a
// physical one.
func BenchmarkMachineRunMasked(b *testing.B) {
	cfg := hw.Default()
	cfg.FailedTiles = hw.RangeTileMask(cfg.Tiles()/2, cfg.Tiles()/2).Complement(cfg.Tiles())
	benchmarkMachineRun(b, cfg)
}

func benchmarkMachineRun(b *testing.B, cfg hw.Config) {
	b.ReportAllocs()
	w, err := models.ByName("skipnet", 32)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), nil)
	if err != nil {
		b.Fatal(err)
	}
	src := workload.NewSource(7)
	trace := w.GenTrace(src, 8, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg, w.Graph, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadPlan(plan); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSteady streams moe batches of 32 at pipeline depth 4
// through a machine whose job pool is already warm: one op is one
// streamed batch in the steady state of a pipelined server.
func BenchmarkStreamSteady(b *testing.B) {
	b.ReportAllocs()
	m, trace := streamMachine(b, "moe", 32, 16)
	ring := make([]*StreamTicket, 4)
	steadyStream(b, m, trace, ring)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if old := ring[i%len(ring)]; old != nil {
			if _, err := m.StreamRetire(old); err != nil {
				b.Fatal(err)
			}
		}
		tk, err := m.StreamSubmit(trace[i%len(trace)])
		if err != nil {
			b.Fatal(err)
		}
		ring[i%len(ring)] = tk
	}
	if err := m.StreamDrain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunWindows is the Figure 9 shape: moe at batch 128 through five
// 40-batch Run windows per op on a fresh machine, with a re-scheduled plan
// loaded before each window (one for a quarter of the chip, with three
// segments instead of two). The plans are scheduled once, before the
// timer. jobs/op counts the job shells the machine built.
func BenchmarkRunWindows(b *testing.B) {
	const batch, window = 128, 40
	b.ReportAllocs()
	failed := []hw.TileMask{"", "", quarterChip(), "", ""}
	w, err := models.ByName("moe", batch)
	if err != nil {
		b.Fatal(err)
	}
	trace := w.GenTrace(workload.NewSource(13), window*len(failed), batch)
	plans := make([]*sched.Plan, len(failed))
	newMachine := func() *Machine {
		m, err := New(hw.Default(), w.Graph, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	playWindows(b, newMachine(), trace, window, failed, plans, nil)
	jobs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newMachine()
		playWindows(b, m, trace, window, failed, plans, nil)
		jobs += m.jobsBuilt
	}
	b.ReportMetric(float64(jobs)/float64(b.N), "jobs/op")
}

// BenchmarkAssignUnits resolves one moe batch per iteration into a reused
// unit buffer, as the machine does for every batch it submits: 0 allocs/op.
func BenchmarkAssignUnits(b *testing.B) {
	w, err := models.ByName("tutel-moe", 128)
	if err != nil {
		b.Fatal(err)
	}
	bt := w.GenTrace(workload.NewSource(1), 1, 128)[0]
	var units []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if units, err = w.Graph.AssignUnits(units, bt.Units, bt.Routing); err != nil {
			b.Fatal(err)
		}
	}
}
