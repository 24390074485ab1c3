package accel

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Streaming execution: the batch-pipelined alternative to Run. Run is
// window-oriented — it takes a whole batch window, executes it segment-major,
// and blocks until the pipeline drains, which is the right shape for the
// offline experiments but forces an online serving loop to freeze admission
// for the full latency of every batch. The Stream* API below instead lets the
// serving layer keep several batches in flight on the machine at once:
//
//	tk, _ := m.StreamSubmit(b)   // launch batch b's segment chain, non-blocking
//	m.StepTo(t)                  // advance the clock, overlapping in-flight work
//	done, _ := m.StreamRetire(tk) // run until b completes, collect its latency
//	m.StreamDrain()              // run every in-flight batch to completion
//
// A streamed batch is a one-batch window of Run's driver: its jobs flow
// segment 0, 1, ... in order, each segment's weights prefetched while the
// previous segment runs, so one batch submitted and retired alone is
// indistinguishable from a one-batch Run. Cross-batch pipelining comes from
// the per-(segment, entity) stage tokens: batch k+1's segment-0 entities
// start as soon as batch k releases them, while batch k is already
// computing segment 1. Everything stays on the one deterministic event
// queue, so a streamed schedule is reproducible at any GOMAXPROCS.
//
// LoadPlan and SetCapability still require a drained pipeline (no tickets in
// flight), just as they require Run to have returned.

// StreamTicket tracks one in-flight batch window — a streamed batch, or a
// Run window — from submission to completion.
type StreamTicket struct {
	start  sim.Time
	doneAt sim.Time
	done   *sim.Signal
	err    error
}

// Done reports whether the batch has completed (or failed).
func (t *StreamTicket) Done() bool { return t.done.Fired() }

// DoneAt returns the completion time; only meaningful once Done reports true.
func (t *StreamTicket) DoneAt() sim.Time { return t.doneAt }

// Start returns the submission time.
func (t *StreamTicket) Start() sim.Time { return t.start }

// resolve completes the ticket at the given time with the window's error.
func (t *StreamTicket) resolve(at sim.Time, err error) {
	t.doneAt, t.err = at, err
	t.done.Fire()
}

// StreamSubmit launches one batch through the loaded plan without blocking:
// the batch's profiler observation and statistics are taken now, its
// one-batch window's driver is spawned on the event queue, and the returned
// ticket resolves when its final segment drains. The clock does not
// advance; pair with StepTo, StreamRetire or StreamDrain.
func (m *Machine) StreamSubmit(b workload.Batch) (*StreamTicket, error) {
	return m.submit([]workload.Batch{b})
}

// StepTo advances the clock to t, processing every pending event strictly
// before t and leaving later work queued: in-flight streamed batches make
// exactly the progress the interval allows. Times at or before the current
// clock are a no-op. This is the bounded-advance primitive the pipelined
// serving loop interleaves with admission.
func (m *Machine) StepTo(t sim.Time) {
	if t <= m.env.Now() {
		return
	}
	m.env.StepTo(t)
}

// StreamRetire runs the simulation until the ticket's batch completes and
// returns its completion time. The clock lands on the timestamp of the
// completing event, so later in-flight batches keep whatever progress they
// made up to that instant and no more.
func (m *Machine) StreamRetire(tk *StreamTicket) (sim.Time, error) {
	if !m.env.RunUntilFired(tk.done) {
		return 0, m.blockedErr("stream stalled", "with no pending events")
	}
	return tk.doneAt, tk.err
}

// StreamDrain runs every in-flight streamed batch to completion, with the
// same deadlock diagnostic as Run. Callers retire their tickets first when
// they need per-batch completion times; StreamDrain is the backstop that
// restores the "pipeline drained" invariant LoadPlan and SetCapability rely
// on.
func (m *Machine) StreamDrain() error {
	m.env.Run()
	if m.env.Live() > 0 {
		return m.blockedErr("deadlock", "after stream drain")
	}
	return nil
}
