// Package sim provides a deterministic discrete-event simulation engine.
//
// It plays the role SimPy plays in the paper's evaluation: an event queue, a
// virtual clock, processes, and synchronization primitives (signals, stores,
// bandwidth servers) from which the accelerator model in internal/accel is
// built. Unlike SimPy's generators, a process here is an explicit state
// machine: a step function the engine calls on each wake-up, which resumes
// from its own program counter and runs until it blocks again. No goroutine
// or channel is involved, so waking a process costs one event dispatch.
//
// Time is measured in clock cycles of the simulated accelerator (1 GHz in the
// default configuration, so one cycle is one nanosecond). All scheduling is
// deterministic: events at the same timestamp fire in the order they were
// scheduled.
//
// Pending events live in two places. An event scheduled for a later time goes
// on a binary heap ordered by (time, scheduling sequence). An event scheduled
// for the current time — a process wake-up, a Wait(0), a signal release —
// goes on a FIFO lane, which costs no sift. The engine runs the heap's events
// at the current time before the lane's, and that keeps the (time, sequence)
// order exactly: an event reaches the heap at time now only if it was
// scheduled while the clock was still earlier, so its sequence number is
// lower than that of every lane event, which was scheduled at now. The clock
// cannot advance while the lane holds events, so the lane never holds an
// event from an earlier time.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in simulated time, in accelerator clock cycles.
type Time int64

// Forever is a time later than any meaningful simulation horizon.
const Forever Time = 1<<62 - 1

// event is one pending callback. Events are stored by value inside the
// queue's backing array: pushing an event writes into a recycled slot (or
// grows the array, amortized), and popping one releases its slot back in
// place — the array doubles as the event free-list, so the steady-state
// Schedule/step cycle performs no heap allocation at all.
type event struct {
	at  Time
	seq int64
	fn  func()
}

// before is the strict queue order: primarily by timestamp, with the
// scheduling sequence number breaking ties so same-time events fire FIFO.
// This pair is the engine's determinism contract.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a value-typed binary min-heap ordered by (at, seq). It
// replaces the previous container/heap implementation: no interface boxing,
// no per-event pointer allocation, and the sift loops inline.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// pop removes and returns the minimum event. The caller must have checked
// the queue is non-empty.
func (q *eventQueue) pop() event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the closure so the free slot holds no reference
	*q = h[:n]
	if n > 0 {
		q.down(0)
	}
	return ev
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && q[r].before(&q[l]) {
			least = r
		}
		if !q[least].before(&q[i]) {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// Env is a simulation environment: a clock plus a pending-event queue.
// The zero value is ready to use.
type Env struct {
	now   Time
	queue eventQueue
	// lane holds the callbacks scheduled at now, in scheduling order, from
	// laneHead on; it is emptied (and its array reused) each time it drains.
	lane     []func()
	laneHead int
	seq      int64
	nprocs   int   // live processes, for deadlock detection
	live     *Proc // head of the live-process list
}

// NewEnv returns a fresh simulation environment at time zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Schedule arranges for fn to run after delay cycles. A negative delay is an
// error in the caller's logic and panics.
func (e *Env) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t, which must not be in the past.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.lane = append(e.lane, fn)
		return
	}
	e.queue.push(event{at: t, seq: e.seq, fn: fn})
}

// step runs the earliest pending event. It reports false when nothing is
// pending. Heap events due now run before the lane (see the package doc).
func (e *Env) step() bool {
	if e.laneHead < len(e.lane) && (len(e.queue) == 0 || e.queue[0].at > e.now) {
		fn := e.lane[e.laneHead]
		e.lane[e.laneHead] = nil // release the closure
		e.laneHead++
		if e.laneHead == len(e.lane) {
			e.lane, e.laneHead = e.lane[:0], 0
		}
		fn()
		return true
	}
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Run drains the event queue, advancing the clock, until no events remain.
// It returns the final simulated time.
func (e *Env) Run() Time {
	for e.step() {
	}
	return e.now
}

// RunUntil processes events with timestamps not exceeding horizon and then
// sets the clock to horizon. Events scheduled after the horizon remain queued.
func (e *Env) RunUntil(horizon Time) Time {
	for t, ok := e.NextEvent(); ok && t <= horizon; t, ok = e.NextEvent() {
		e.step()
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.now
}

// StepTo processes every pending event with a timestamp strictly before
// horizon and then sets the clock to horizon. Unlike RunUntil, events AT the
// horizon stay pending: the streaming machine (accel.Machine.StepTo) advances
// to an outside time and leaves that instant to its caller, which may still
// add work at exactly the horizon.
func (e *Env) StepTo(horizon Time) {
	for t, ok := e.NextEvent(); ok && t < horizon; t, ok = e.NextEvent() {
		e.step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// NextEvent returns the earliest pending event's timestamp; ok is false when
// the queue is empty.
func (e *Env) NextEvent() (t Time, ok bool) {
	switch {
	case e.laneHead < len(e.lane):
		return e.now, true
	case len(e.queue) > 0:
		return e.queue[0].at, true
	}
	return 0, false
}

// Pending reports the number of queued events.
func (e *Env) Pending() int { return len(e.queue) + len(e.lane) - e.laneHead }

// Live reports the number of processes that have started but not finished.
func (e *Env) Live() int { return e.nprocs }

// BlockedProcs returns the sorted names of the live processes. Once Run has
// drained the event queue, every live process is queued in a
// synchronization primitive with no event left to wake it, so a non-empty
// result means those processes can never resume — a deadlock (or an aborted
// run): the returned names say who was stuck and make the bug findable.
func (e *Env) BlockedProcs() []string {
	out := make([]string, 0, e.nprocs)
	for p := e.live; p != nil; p = p.next {
		out = append(out, p.name)
	}
	sort.Strings(out)
	return out
}
