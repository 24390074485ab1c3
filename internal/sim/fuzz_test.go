package sim

import (
	"sort"
	"testing"
)

// FuzzEventOrder drives the event queue with a program read from the input
// and checks every event fires in the reference (time, scheduling sequence)
// order: a stable sort of the Schedule calls by timestamp. Delays are small
// so timestamps tie and new minima are frequent, which exercises the hot
// slot, its hand-over to the heap and the same-time lane. Each input byte
// pair is one instruction:
//
//	op%4 == 0: Schedule(arg%8), a plain event
//	op%4 == 1: Schedule(arg%8) an event that, when it fires, schedules
//	           arg/8%4 children at delays taken from the following bytes
//	op%4 == 2: RunUntil(now + arg%6)
//	op%4 == 3: StepTo(now + arg%6)
//
// Pending and NextEvent are checked against the unfired reference events
// after every instruction, and the queue is drained with Run at the end.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 2, 5})
	f.Add([]byte{1, 0x1b, 2, 0, 1, 5, 3, 4, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		type stamp struct {
			at  Time
			seq int
		}
		env := NewEnv()
		var want, fired []stamp
		done := map[int]bool{}
		var schedule func(d Time, children []byte)
		schedule = func(d Time, children []byte) {
			s := stamp{at: env.Now() + d, seq: len(want)}
			want = append(want, s)
			env.Schedule(d, func() {
				if env.Now() != s.at {
					t.Fatalf("event %d scheduled for %d fired at %d", s.seq, s.at, env.Now())
				}
				fired = append(fired, s)
				done[s.seq] = true
				for _, c := range children {
					schedule(Time(c%8), nil)
				}
			})
		}
		check := func(when int) {
			t.Helper()
			n, next := 0, Forever
			for _, w := range want {
				if !done[w.seq] {
					n++
					next = min(next, w.at)
				}
			}
			if got := env.Pending(); got != n {
				t.Fatalf("after instruction %d: Pending() = %d, reference has %d unfired", when, got, n)
			}
			got, ok := env.NextEvent()
			if ok != (n > 0) || (ok && got != next) {
				t.Fatalf("after instruction %d: NextEvent() = %d, %v; reference next %d of %d unfired",
					when, got, ok, next, n)
			}
		}
		for pc := 0; pc+1 < len(prog) && len(want) < 4096; pc += 2 {
			op, arg := prog[pc], prog[pc+1]
			switch op % 4 {
			case 0:
				schedule(Time(arg%8), nil)
			case 1:
				k := min(int(arg/8%4), len(prog)-pc-2)
				schedule(Time(arg%8), prog[pc+2:pc+2+k])
				pc += k
			case 2:
				h := env.Now() + Time(arg%6)
				env.RunUntil(h)
				if env.Now() != h {
					t.Fatalf("RunUntil(%d) left the clock at %d", h, env.Now())
				}
			case 3:
				h := env.Now() + Time(arg%6)
				env.StepTo(h)
				if env.Now() != h {
					t.Fatalf("StepTo(%d) left the clock at %d", h, env.Now())
				}
			}
			check(pc)
		}
		env.Run()
		check(len(prog))
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(fired) != len(want) {
			t.Fatalf("fired %d events, scheduled %d", len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("event %d fired as %+v, reference order wants %+v", i, fired[i], want[i])
			}
		}
	})
}
