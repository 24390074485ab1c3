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
// Every pending event is a process wake-up: the queue, its hot slot and the
// lane hold *Proc, and dispatch calls the process's run method. A callback
// passed to Schedule or At is wrapped in a one-shot process. Pending events
// live in three places, and together they keep the (time, sequence) order
// exactly:
//
//   - An event scheduled for the current time — a process start, a
//     Wait(0), a signal or store release — goes on a FIFO lane, which costs
//     no sift.
//     The engine runs the queue's events due now before the lane's: an event
//     reaches the queue at time now only if it was scheduled while the clock
//     was still earlier, so its sequence number is lower than that of every
//     lane event, which was scheduled at now. The clock cannot advance while
//     the lane holds events, so the lane never holds an event from an
//     earlier time.
//   - An event for a later time that beats every queued one waits in a hot
//     slot outside the heap; much of the traffic is of this kind (a process
//     waiting out a short compute or transfer), and it then costs no sift.
//     A later push that beats the hot event moves it into the heap, and the
//     engine takes the hot event first, so the hot slot always holds the
//     queue's minimum when it is full. A new event carries the highest
//     sequence number yet, so it beats a queued one exactly when its time is
//     earlier.
//   - Every other future event sits on a binary min-heap ordered by (time,
//     sequence). Heap entries are pointer-free (time, sequence, slot)
//     triples; the processes live in a slab indexed by slot, whose slots are
//     recycled through a free list. A sift therefore moves no pointer, needs
//     no GC write barrier, and the collector never scans the heap.
//
// A fourth case skips the queue altogether. When a step ends in Wait(d),
// d > 0, and that wake-up is provably the next event — the lane is empty,
// it is strictly before every queued event, and the running loop's horizon
// reaches it — the process continues in place: the clock advances and the
// next step runs at once (see Proc.run). Run, RunUntil, StepTo and
// RunUntilFired all allow it within their horizons; Wakeups counts both
// kinds of wake-up.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in simulated time, in accelerator clock cycles.
type Time int64

// Forever is a time later than any meaningful simulation horizon.
const Forever Time = 1<<62 - 1

// entry is one pending future event in the queue's order: its timestamp,
// its scheduling sequence number, and the slab slot holding the process to
// wake (unused while the event is hot). It holds no pointer, so moving
// entries during a sift needs no GC write barrier and the heap's backing
// array is never scanned by the collector.
type entry struct {
	at   Time
	seq  int64
	slot int32
}

// before is the strict queue order: primarily by timestamp, with the
// scheduling sequence number breaking ties so same-time events fire FIFO.
// This pair is the engine's determinism contract.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue holds the pending future wake-ups in (at, seq) order. The
// earliest of them waits in a hot slot, outside the heap, whenever the push
// that brought it beat everything queued; its process sits beside it. A
// push that beats the hot event moves that event into the heap, and pop
// takes the hot event when there is one, so a full hot slot always orders
// before every heap entry. The heap's processes live in procs, a slab
// indexed by entry.slot whose released slots are recycled through free, so
// the steady-state push/pop cycle allocates nothing.
type eventQueue struct {
	hot    entry
	hotP   *Proc
	hasHot bool
	heap   []entry // binary min-heap of the events behind the hot one
	procs  []*Proc
	free   []int32
}

// len reports the number of queued events.
func (q *eventQueue) len() int {
	if q.hasHot {
		return len(q.heap) + 1
	}
	return len(q.heap)
}

// next returns the earliest queued event's timestamp; ok is false when the
// queue is empty.
func (q *eventQueue) next() (t Time, ok bool) {
	if q.hasHot {
		return q.hot.at, true
	}
	if len(q.heap) > 0 {
		return q.heap[0].at, true
	}
	return 0, false
}

// push queues p's wake-up at time at. Its sequence number is the highest yet
// issued, so it orders before a queued event exactly when its time is
// earlier.
func (q *eventQueue) push(at Time, seq int64, p *Proc) {
	ev := entry{at: at, seq: seq}
	if q.hasHot {
		if at < q.hot.at {
			ev, q.hot = q.hot, ev
			p, q.hotP = q.hotP, p
		}
	} else if len(q.heap) == 0 || at < q.heap[0].at {
		q.hot, q.hotP, q.hasHot = ev, p, true
		return
	}
	if n := len(q.free); n > 0 {
		ev.slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.procs[ev.slot] = p
	} else {
		ev.slot = int32(len(q.procs))
		q.procs = append(q.procs, p)
	}
	q.heap = append(q.heap, ev)
	q.up(len(q.heap) - 1)
}

// pop removes the earliest event and returns its timestamp and process.
// The caller must have checked the queue is non-empty.
func (q *eventQueue) pop() (Time, *Proc) {
	if q.hasHot {
		p := q.hotP
		q.hotP, q.hasHot = nil, false // drop the reference
		return q.hot.at, p
	}
	h := q.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.heap = h[:n]
	if n > 1 {
		q.down(0)
	}
	p := q.procs[ev.slot]
	q.procs[ev.slot] = nil // a free slot holds no reference
	q.free = append(q.free, ev.slot)
	return ev.at, p
}

// up and down sift with a hole: the moving entry is written once, at its
// final position.
func (q *eventQueue) up(i int) {
	h := q.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (q *eventQueue) down(i int) {
	h := q.heap
	n := len(h)
	ev := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			least = r
		}
		if !h[least].before(&ev) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = ev
}

// Env is a simulation environment: a clock plus a pending-event queue.
// The zero value is ready to use.
type Env struct {
	now   Time
	queue eventQueue
	// lane holds the processes woken at now, in wake-up order, from
	// laneHead on; it is emptied (and its array reused) each time it drains.
	lane     []*Proc
	laneHead int
	seq      int64
	// deferred is the running process if its step has called Wait(d) with
	// d > 0: that wake-up is held back until the step returns (Proc.run
	// then runs it in place or queues it), or until the step queues
	// something else for a later time or reads Pending or NextEvent, which
	// queue it at once. It is nil between steps.
	deferred *Proc
	// limit is the latest time the running loop lets a process continue in
	// place to: Forever under Run, the horizon under RunUntil, one cycle
	// before it under StepTo, and 0 outside a loop, where nothing continues
	// in place. A RunUntilFired whose signal fires pulls it down to now.
	limit Time
	until *Signal // the signal RunUntilFired waits for
	// dispatched and inPlace count wake-ups: taken from the lane or the
	// queue, and continued in place.
	dispatched, inPlace int64
	nprocs              int   // live processes, for deadlock detection
	live                *Proc // head of the live-process list
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

// At arranges for fn to run at absolute time t, which must not be in the
// past. The callback is a one-shot event: a process that is never started,
// whose only step calls fn. Each call allocates it, so code that wakes
// repeatedly keeps a Proc and calls Wait instead.
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	p := &Proc{env: e, name: "event", step: func(*Proc) bool { fn(); return true }}
	if t == e.now {
		e.wakeNow(p)
		return
	}
	e.flush()
	e.seq++
	e.queue.push(t, e.seq, p)
}

// wakeNow puts p's wake-up on the lane. It needs no flush: a deferred
// wake-up is for a later time, so the two never tie.
func (e *Env) wakeNow(p *Proc) { e.lane = append(e.lane, p) }

// flush queues the deferred wake-up, if any. Anything queued for a later
// time flushes first, so the deferred wake-up keeps the sequence number
// order it would have had if Wait had queued it.
func (e *Env) flush() {
	if e.deferred != nil {
		e.queueDeferred()
	}
}

// queueDeferred queues the deferred wake-up, which must be there.
func (e *Env) queueDeferred() {
	p := e.deferred
	e.deferred = nil
	e.seq++
	e.queue.push(p.wakeAt, e.seq, p)
}

// continues reports whether a wake-up at t > now is the next event the
// running loop would dispatch: the lane is empty, t is strictly before
// every queued event, and the loop's horizon reaches t.
func (e *Env) continues(t Time) bool {
	if t > e.limit || e.laneHead < len(e.lane) {
		return false
	}
	next, ok := e.queue.next()
	return !ok || t < next
}

// step runs the earliest pending wake-up. It reports false when nothing is
// pending. Queued events due now run before the lane (see the package doc).
func (e *Env) step() bool {
	var p *Proc
	if e.laneHead < len(e.lane) {
		if t, ok := e.queue.next(); !ok || t > e.now {
			p = e.lane[e.laneHead]
			e.lane[e.laneHead] = nil // drop the reference
			e.laneHead++
			if e.laneHead == len(e.lane) {
				e.lane, e.laneHead = e.lane[:0], 0
			}
		}
	}
	if p == nil {
		if e.queue.len() == 0 {
			return false
		}
		e.now, p = e.queue.pop()
	}
	e.dispatched++
	p.run()
	return true
}

// Run drains the event queue, advancing the clock, until no events remain.
// It returns the final simulated time.
func (e *Env) Run() Time {
	e.limit = Forever
	for e.step() {
	}
	e.limit = 0
	return e.now
}

// RunUntil processes events with timestamps not exceeding horizon and then
// sets the clock to horizon. Events scheduled after the horizon remain queued.
func (e *Env) RunUntil(horizon Time) Time {
	e.limit = horizon
	for t, ok := e.NextEvent(); ok && t <= horizon; t, ok = e.NextEvent() {
		e.step()
	}
	e.limit = 0
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
	e.limit = horizon - 1
	for t, ok := e.NextEvent(); ok && t < horizon; t, ok = e.NextEvent() {
		e.step()
	}
	e.limit = 0
	if e.now < horizon {
		e.now = horizon
	}
}

// RunUntilFired processes events until s fires, then finishes the instant
// it fired at: the events due then, including any scheduled for it while
// they run. Later events stay pending. If s was reset again by the end of
// that instant, it carries on. It reports false, with s unfired, if the
// events ran out first, and returns at once if s has already fired. The
// clock is left where the last event ran. This is the loop
//
//	for !s.Fired() {
//		t, ok := e.NextEvent()
//		if !ok {
//			return false
//		}
//		e.RunUntil(t)
//	}
//
// in one call, so a process may continue in place while s is unfired.
func (e *Env) RunUntilFired(s *Signal) bool {
	e.until = s
	for !s.fired {
		e.limit = Forever
		for !s.fired && e.step() {
		}
		if !s.fired {
			break // stalled
		}
		// Fire set limit to now, so nothing continues past this instant.
		for t, ok := e.NextEvent(); ok && t <= e.now; t, ok = e.NextEvent() {
			e.step()
		}
	}
	e.limit, e.until = 0, nil
	return s.fired
}

// NextEvent returns the earliest pending event's timestamp; ok is false when
// the queue is empty.
func (e *Env) NextEvent() (t Time, ok bool) {
	if e.laneHead < len(e.lane) {
		return e.now, true
	}
	e.flush()
	return e.queue.next()
}

// Pending reports the number of queued events.
func (e *Env) Pending() int {
	e.flush()
	return e.queue.len() + len(e.lane) - e.laneHead
}

// Wakeups reports how many process wake-ups have run: dispatched from the
// lane or the queue, and continued in place without touching either (see
// Proc.run). One-shot events count as dispatched. The sum is the number of
// dispatches an engine without in-place continuation makes.
func (e *Env) Wakeups() (dispatched, inPlace int64) { return e.dispatched, e.inPlace }

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
