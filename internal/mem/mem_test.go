package mem

import (
	"math/rand"
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

// TestLockstepMatchesPerStackServers checks the single booked stack against
// the arithmetic it stands for: one server per stack, each booking the
// request's ceil(n/stacks) share, the request done when its slowest stack
// is. Completion times, busy cycles and byte totals must agree over a mixed
// stream of reads and write-backs, bursts and idle gaps, and derates.
func TestLockstepMatchesPerStackServers(t *testing.T) {
	cfg := hw.Default()
	env := sim.NewEnv()
	h := New(env, cfg)
	stacks := make([]*sim.Server, cfg.HBMStacks)
	for i := range stacks {
		stacks[i] = sim.NewServer(env, cfg.HBMStackBytesPerCycle())
	}
	rng := rand.New(rand.NewSource(7))
	var reads, writes int64
	for step := 0; step < 400; step++ {
		if step%100 == 50 {
			factor := []float64{0.55, 1, 0.3}[step/100%3]
			h.Derate(factor)
			for _, s := range stacks {
				s.SetRate(cfg.HBMStackBytesPerCycle() * factor)
			}
		}
		n := rng.Int63n(1 << 20)
		per := n / int64(len(stacks))
		if per*int64(len(stacks)) < n {
			per++
		}
		var want sim.Time
		for _, s := range stacks {
			want = max(want, s.Reserve(per))
		}
		var got sim.Time
		if rng.Intn(3) == 0 {
			got = h.ReserveWrite(n)
			writes += n
		} else {
			got = h.Reserve(n)
			reads += n
		}
		if got != want {
			t.Fatalf("request %d (%d bytes): done at %d, per-stack servers at %d", step, n, got, want)
		}
		if rng.Intn(4) == 0 {
			env.RunUntil(env.Now() + sim.Time(rng.Intn(2000)))
		}
	}
	var busy sim.Time
	for _, s := range stacks {
		busy = max(busy, s.BusyCycles())
	}
	if h.BusyCycles() != busy {
		t.Fatalf("busy cycles %d, per-stack servers %d", h.BusyCycles(), busy)
	}
	if h.ReadBytes() != reads || h.WriteBytes() != writes {
		t.Fatalf("bytes read %d written %d, want %d and %d", h.ReadBytes(), h.WriteBytes(), reads, writes)
	}
	if want := stacks[0].Rate() * float64(len(stacks)); h.BytesPerCycle() != want {
		t.Fatalf("aggregate rate %v, want %v", h.BytesPerCycle(), want)
	}
}
