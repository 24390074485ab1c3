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
// through a machine whose segment job pools are already warm: one op is one
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
