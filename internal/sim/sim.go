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
// Pending events live in three places, and together they keep the (time,
// sequence) order exactly:
//
//   - An event scheduled for the current time — a process wake-up, a
//     Wait(0), a signal release — goes on a FIFO lane, which costs no sift.
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
//     triples; the callbacks live in a slab indexed by slot, whose slots are
//     recycled through a free list. A sift therefore moves no pointer, needs
//     no GC write barrier, and the collector never scans the heap.
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
// its scheduling sequence number, and the slab slot holding its callback
// (unused while the event is hot). It holds no pointer, so moving entries
// during a sift needs no GC write barrier and the heap's backing array is
// never scanned by the collector.
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

// eventQueue holds the pending future events in (at, seq) order. The
// earliest of them waits in a hot slot, outside the heap, whenever the push
// that brought it beat everything queued; its callback sits beside it. A
// push that beats the hot event moves that event into the heap, and pop
// takes the hot event when there is one, so a full hot slot always orders
// before every heap entry. The heap's callbacks live in fns, a slab indexed
// by entry.slot whose released slots are recycled through free, so the
// steady-state push/pop cycle allocates nothing.
type eventQueue struct {
	hot    entry
	hotFn  func()
	hasHot bool
	heap   []entry // binary min-heap of the events behind the hot one
	fns    []func()
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

// push queues fn at time at. Its sequence number is the highest yet issued,
// so it orders before a queued event exactly when its time is earlier.
func (q *eventQueue) push(at Time, seq int64, fn func()) {
	ev := entry{at: at, seq: seq}
	if q.hasHot {
		if at < q.hot.at {
			ev, q.hot = q.hot, ev
			fn, q.hotFn = q.hotFn, fn
		}
	} else if len(q.heap) == 0 || at < q.heap[0].at {
		q.hot, q.hotFn, q.hasHot = ev, fn, true
		return
	}
	if n := len(q.free); n > 0 {
		ev.slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.fns[ev.slot] = fn
	} else {
		ev.slot = int32(len(q.fns))
		q.fns = append(q.fns, fn)
	}
	q.heap = append(q.heap, ev)
	q.up(len(q.heap) - 1)
}

// pop removes the earliest event and returns its timestamp and callback.
// The caller must have checked the queue is non-empty.
func (q *eventQueue) pop() (Time, func()) {
	if q.hasHot {
		fn := q.hotFn
		q.hotFn, q.hasHot = nil, false // release the closure
		return q.hot.at, fn
	}
	h := q.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.heap = h[:n]
	if n > 1 {
		q.down(0)
	}
	fn := q.fns[ev.slot]
	q.fns[ev.slot] = nil // release the closure so the free slot holds no reference
	q.free = append(q.free, ev.slot)
	return ev.at, fn
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
	e.queue.push(t, e.seq, fn)
}

// step runs the earliest pending event. It reports false when nothing is
// pending. Queued events due now run before the lane (see the package doc).
func (e *Env) step() bool {
	if e.laneHead < len(e.lane) {
		if t, ok := e.queue.next(); !ok || t > e.now {
			fn := e.lane[e.laneHead]
			e.lane[e.laneHead] = nil // release the closure
			e.laneHead++
			if e.laneHead == len(e.lane) {
				e.lane, e.laneHead = e.lane[:0], 0
			}
			fn()
			return true
		}
	}
	if e.queue.len() == 0 {
		return false
	}
	t, fn := e.queue.pop()
	e.now = t
	fn()
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
	if e.laneHead < len(e.lane) {
		return e.now, true
	}
	return e.queue.next()
}

// Pending reports the number of queued events.
func (e *Env) Pending() int { return e.queue.len() + len(e.lane) - e.laneHead }

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
