package sim

import (
	"sort"
	"testing"
)

// FuzzEventOrder drives the engine with a program read from the input and
// checks every wake-up — plain events and process steps alike — fires in
// the reference (time, scheduling sequence) order: a stable sort, by
// timestamp, of the points where the program arranged them. Delays are
// small so timestamps tie and new minima are frequent, which exercises the
// hot slot, its hand-over to the heap, the same-time lane and in-place
// continuation. Each input byte pair is one instruction:
//
//	op%8 == 0: Schedule(arg%8), a plain event
//	op%8 == 1: Schedule(arg%8) an event that, when it fires, schedules
//	           arg/8%4 children at delays taken from the following bytes
//	op%8 == 2: RunUntil(now + arg%6)
//	op%8 == 3: StepTo(now + arg%6)
//	op%8 == 4: Spawn a process whose script is the following arg%8 bytes
//	           (see eventProgram.spawn)
//	op%8 == 5: RunUntilFired(signal arg%2)
//	op%8 == 6: from outside any process, TryPut(store arg/3%2) (arg%3 == 0),
//	           Fire (1) or Reset (2) signal arg/3%2
//	op%8 == 7: Run()
//
// Pending and NextEvent are checked against the unfired reference wake-ups
// after every instruction, and the queue is drained with Run at the end.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 2, 5})
	f.Add([]byte{1, 0x1b, 2, 0, 1, 5, 3, 4, 0, 0})
	for _, seed := range engineSeeds {
		f.Add(seed.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runEventProgram(t, prog)
	})
}

// engineSeeds are hand-written programs for the engine paths a random
// input reaches rarely; TestEngineSeedsReachTheirPaths checks each still
// does.
var engineSeeds = []struct {
	name string
	prog []byte
	// want checks the program's wake-up counts.
	want func(dispatched, inPlace int64) bool
}{
	{
		// A lone process waiting 1, 2, 3, 4, 5 cycles: every wake-up after
		// its start is the next event, so all five continue in place.
		name: "in-place",
		prog: []byte{4, 5, 0x08, 0x10, 0x18, 0x20, 0x28, 7, 0},
		want: func(d, ip int64) bool { return d == 1 && ip == 5 },
	},
	{
		// A process waiting 2, 2, 2 cycles, driven by RunUntil(now+1) and
		// StepTo(now+1): each horizon stops short of its next wake-up, so
		// only the last wait, under the final Run, continues in place.
		name: "horizon-blocks",
		prog: []byte{4, 3, 0x10, 0x10, 0x10, 2, 1, 3, 1, 2, 1, 3, 1},
		want: func(d, ip int64) bool { return d == 3 && ip == 1 },
	},
	{
		// A process waiting 1, 1 under StepTo(2): the first wake-up
		// continues in place, the second is at the horizon and must stay
		// pending.
		name: "stepto-horizon",
		prog: []byte{4, 2, 0x08, 0x08, 3, 2, 7, 0},
		want: func(d, ip int64) bool { return d == 2 && ip == 1 },
	},
	{
		// An event at 2, then a process waiting 2: its wake-up ties with
		// the event, which was scheduled first, so it is queued behind it.
		name: "tie-queued",
		prog: []byte{0, 2, 4, 1, 0x10, 7, 0},
		want: func(d, ip int64) bool { return d == 3 && ip == 0 },
	},
	{
		// Process A waits 2, fires signal 0 and waits 3; B awaits signal
		// 0; an event at 1 schedules another at 2, behind A. RunUntilFired(0)
		// finishes instant 2 after the fire — the later event and B — and
		// leaves A's wake-up at 5 pending. Then process C, started at 2,
		// continues in place to 3, fires signal 1 and waits 1: nothing else
		// is due before 5, but RunUntilFired(1) must stop at 3, so that
		// wake-up is queued too.
		name: "fire-mid-instant",
		prog: []byte{0, 2, 1, 0x09, 0x01, 4, 3, 0x10, 0x06, 0x18, 4, 1, 0x05, 5, 0,
			4, 3, 0x08, 0x0e, 0x08, 5, 1},
		want: func(d, ip int64) bool { return d == 10 && ip == 1 },
	},
}

// stamp is one arranged wake-up in the reference order.
type stamp struct {
	at  Time
	seq int
}

// eventProgram is one fuzz program's engine and the reference model the
// checks compare it with: the arranged wake-ups, and a mirror of each
// store's and signal's waiter queue, which decides whom a release wakes.
type eventProgram struct {
	t       *testing.T
	env     *Env
	want    []stamp // every arranged wake-up, in scheduling order
	fired   []stamp // the wake-ups as they ran
	done    []bool  // by seq
	stores  [2]*Store
	getters [2][]*scriptProc
	putters [2][]*scriptProc
	signals [2]*Signal
	waiters [2][]*scriptProc
	firedAt [2]Time // when each signal last fired
}

// scriptProc is a fuzzed process: a script of actions and the wake-up it
// has pending.
type scriptProc struct {
	script  []byte
	pc      int
	pending stamp
}

// arrange records a wake-up arranged now for time at.
func (ep *eventProgram) arrange(at Time) stamp {
	s := stamp{at: at, seq: len(ep.want)}
	ep.want = append(ep.want, s)
	ep.done = append(ep.done, false)
	return s
}

// wake records that s ran now.
func (ep *eventProgram) wake(s stamp) {
	if now := ep.env.Now(); now != s.at {
		ep.t.Fatalf("wake-up %d arranged for %d ran at %d", s.seq, s.at, now)
	}
	if ep.done[s.seq] {
		ep.t.Fatalf("wake-up %d ran twice", s.seq)
	}
	ep.done[s.seq] = true
	ep.fired = append(ep.fired, s)
}

func (ep *eventProgram) schedule(d Time, children []byte) {
	s := ep.arrange(ep.env.Now() + d)
	ep.env.Schedule(d, func() {
		ep.wake(s)
		for _, c := range children {
			ep.schedule(Time(c%8), nil)
		}
	})
}

// release mirrors a primitive waking the first process of a waiter queue.
func (ep *eventProgram) release(q *[]*scriptProc) {
	if len(*q) == 0 {
		return
	}
	sp := (*q)[0]
	*q = (*q)[1:]
	sp.pending = ep.arrange(ep.env.Now())
}

func (ep *eventProgram) put(i int, ok bool) {
	if ok {
		ep.release(&ep.getters[i])
	}
}

func (ep *eventProgram) fire(i int) {
	if !ep.signals[i].Fired() {
		ep.firedAt[i] = ep.env.Now()
		for _, sp := range ep.waiters[i] {
			sp.pending = ep.arrange(ep.env.Now())
		}
		ep.waiters[i] = nil
	}
	ep.signals[i].Fire()
}

// spawn starts a process that runs script, one action per byte b:
//
//	b%8 < 3: Wait(b/8%6), zero included
//	b%8 == 3: Get from store b/8%2 (retried after a blocked call)
//	b%8 == 4: Put to store b/8%2 (store 0 holds one token, store 1 any number)
//	b%8 == 5: Await signal b/8%2
//	b%8 == 6: Fire signal b/8%2
//	b%8 == 7: Reset signal b/8%2
func (ep *eventProgram) spawn(script []byte) {
	sp := &scriptProc{script: script, pending: ep.arrange(ep.env.Now())}
	ep.env.Spawn("script", func(p *Proc) bool {
		ep.wake(sp.pending)
		for ; sp.pc < len(sp.script); sp.pc++ {
			b := sp.script[sp.pc]
			i := int(b / 8 % 2)
			switch b % 8 {
			case 0, 1, 2:
				d := Time(b / 8 % 6)
				sp.pending = ep.arrange(ep.env.Now() + d)
				sp.pc++
				p.Wait(d)
				return false
			case 3:
				if !ep.stores[i].Get(p) {
					ep.getters[i] = append(ep.getters[i], sp)
					return false
				}
				ep.release(&ep.putters[i])
			case 4:
				if !ep.stores[i].Put(p) {
					ep.putters[i] = append(ep.putters[i], sp)
					return false
				}
				ep.put(i, true)
			case 5:
				if !ep.signals[i].Await(p) {
					ep.waiters[i] = append(ep.waiters[i], sp)
					sp.pc++
					return false
				}
			case 6:
				ep.fire(i)
			case 7:
				ep.signals[i].Reset()
			}
		}
		return true
	})
}

// check compares Pending and NextEvent with the unfired reference
// wake-ups, and the engine's wake-up count with the ones that ran.
func (ep *eventProgram) check(when int) {
	t := ep.t
	t.Helper()
	n, next := 0, Forever
	for _, w := range ep.want {
		if !ep.done[w.seq] {
			n++
			next = min(next, w.at)
		}
	}
	if got := ep.env.Pending(); got != n {
		t.Fatalf("after instruction %d: Pending() = %d, reference has %d unfired", when, got, n)
	}
	got, ok := ep.env.NextEvent()
	if ok != (n > 0) || (ok && got != next) {
		t.Fatalf("after instruction %d: NextEvent() = %d, %v; reference next %d of %d unfired",
			when, got, ok, next, n)
	}
	if d, ip := ep.env.Wakeups(); d+ip != int64(len(ep.fired)) {
		t.Fatalf("after instruction %d: Wakeups() = %d + %d, %d wake-ups ran", when, d, ip, len(ep.fired))
	}
}

// runEventProgram runs prog (see FuzzEventOrder), checks it and returns
// the engine.
func runEventProgram(t *testing.T, prog []byte) *Env {
	env := NewEnv()
	ep := &eventProgram{t: t, env: env}
	ep.stores = [2]*Store{NewStore(env, 1), NewStore(env, 0)}
	ep.signals = [2]*Signal{NewSignal(env), NewSignal(env)}
	for pc := 0; pc+1 < len(prog) && len(ep.want) < 4096; pc += 2 {
		op, arg := prog[pc], prog[pc+1]
		switch op % 8 {
		case 0:
			ep.schedule(Time(arg%8), nil)
		case 1:
			k := min(int(arg/8%4), len(prog)-pc-2)
			ep.schedule(Time(arg%8), prog[pc+2:pc+2+k])
			pc += k
		case 2:
			h := env.Now() + Time(arg%6)
			env.RunUntil(h)
			if env.Now() != h {
				t.Fatalf("RunUntil(%d) left the clock at %d", h, env.Now())
			}
			if at, ok := env.NextEvent(); ok && at <= h {
				t.Fatalf("RunUntil(%d) left an event at %d", h, at)
			}
		case 3:
			h := env.Now() + Time(arg%6)
			env.StepTo(h)
			if env.Now() != h {
				t.Fatalf("StepTo(%d) left the clock at %d", h, env.Now())
			}
			if at, ok := env.NextEvent(); ok && at < h {
				t.Fatalf("StepTo(%d) left an event at %d", h, at)
			}
			if n := len(ep.fired); n > 0 && ep.fired[n-1].at >= h {
				t.Fatalf("StepTo(%d) ran a wake-up at %d", h, ep.fired[n-1].at)
			}
		case 4:
			k := min(int(arg%8), len(prog)-pc-2)
			ep.spawn(prog[pc+2 : pc+2+k])
			pc += k
		case 5:
			i := int(arg % 2)
			s := ep.signals[i]
			already, ran := s.Fired(), len(ep.fired)
			ok := env.RunUntilFired(s)
			at, pending := env.NextEvent()
			switch {
			case already:
				if !ok || len(ep.fired) != ran {
					t.Fatalf("RunUntilFired on a fired signal reported %v after %d wake-ups", ok, len(ep.fired)-ran)
				}
			case ok:
				if !s.Fired() || env.Now() != ep.firedAt[i] || (pending && at <= env.Now()) {
					t.Fatalf("RunUntilFired returned at %d with the signal fired=%v at %d and an event at %d",
						env.Now(), s.Fired(), ep.firedAt[i], at)
				}
			default:
				if s.Fired() || pending {
					t.Fatalf("RunUntilFired stalled with the signal fired=%v, events pending=%v", s.Fired(), pending)
				}
			}
		case 6:
			i := int(arg / 3 % 2)
			switch arg % 3 {
			case 0:
				ep.put(i, ep.stores[i].TryPut())
			case 1:
				ep.fire(i)
			case 2:
				ep.signals[i].Reset()
			}
		case 7:
			env.Run()
		}
		ep.check(pc)
	}
	env.Run()
	ep.check(len(prog))
	want := append([]stamp(nil), ep.want...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(ep.fired) != len(want) {
		t.Fatalf("ran %d wake-ups, arranged %d", len(ep.fired), len(want))
	}
	for i := range want {
		if ep.fired[i] != want[i] {
			t.Fatalf("wake-up %d ran as %+v, reference order wants %+v", i, ep.fired[i], want[i])
		}
	}
	return env
}

// TestEngineSeedsReachTheirPaths runs each hand-written seed and checks it
// still reaches the path it was written for.
func TestEngineSeedsReachTheirPaths(t *testing.T) {
	for _, seed := range engineSeeds {
		t.Run(seed.name, func(t *testing.T) {
			d, ip := runEventProgram(t, seed.prog).Wakeups()
			if !seed.want(d, ip) {
				t.Fatalf("wake-ups: %d dispatched, %d in place", d, ip)
			}
		})
	}
}
