package mem

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestReadTimingMatchesBandwidth(t *testing.T) {
	env := sim.NewEnv()
	cfg := hw.Default()
	h := New(env, cfg)
	done := h.Reserve(1842 * 1000) // one microsecond of full-bandwidth traffic
	// 1842*1000 bytes at 1842 B/cycle aggregate = ~1000 cycles.
	if done < 950 || done > 1100 {
		t.Fatalf("read took %d cycles, want ~1000", done)
	}
	if h.ReadBytes() != 1842*1000 {
		t.Fatalf("read bytes = %d", h.ReadBytes())
	}
}

func TestContentionQueues(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, hw.Default())
	t1 := h.Reserve(1842 * 100)
	t2 := h.Reserve(1842 * 100)
	if t2 < 2*t1-10 {
		t.Fatalf("no contention: first %d, second %d", t1, t2)
	}
}

func TestWriteAccounting(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, hw.Default())
	h.ReserveWrite(1000)
	h.Reserve(500)
	if h.WriteBytes() != 1000 || h.ReadBytes() != 500 || h.TotalBytes() != 1500 {
		t.Fatalf("accounting wrong: r=%d w=%d", h.ReadBytes(), h.WriteBytes())
	}
	if h.BusyCycles() == 0 {
		t.Fatal("busy cycles must be recorded")
	}
}

func TestZeroTransferFree(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, hw.Default())
	env.Schedule(7, func() {
		if h.Reserve(0) != 7 || h.ReserveWrite(-5) != 7 {
			t.Error("zero/negative transfers must complete at once")
		}
	})
	env.Run()
	if h.TotalBytes() != 0 || h.BusyCycles() != 0 {
		t.Fatal("zero transfers must not count")
	}
}

func TestReserveOverlapsPrefetch(t *testing.T) {
	env := sim.NewEnv()
	h := New(env, hw.Default())
	done := h.Reserve(1842 * 50)
	if done != 50 && done != 51 {
		t.Fatalf("reserve completion = %d, want ~50", done)
	}
	// A second reservation queues behind the first.
	done2 := h.Reserve(1842 * 50)
	if done2 < 2*done-5 {
		t.Fatalf("second reserve at %d, want ~%d", done2, 2*done)
	}
}
