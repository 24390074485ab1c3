package serve

import (
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// batcher is the server's batching policy. It owns one admission queue, its
// sample count and the "serve" telemetry track, and implements:
//
//   - admission: sample normalisation and queue-full shedding;
//   - the dual fire policy: a batch fires once the size cap is reached or
//     the head request's queue-wait deadline expires, whichever is first;
//   - formation: SLO-expired shedding, then a batch under the size cap (a
//     replayed request is its own batch), routing and density drawn at
//     formation time from the workload's generator;
//   - retirement: per-request outcomes, deadline-miss instants, the batch
//     span and the queue-depth counter.
//
// The caller owns the clock and executes the batch in between. The policy's
// parameters are fixed at construction; the batch index and when a batch
// starts and completes are arguments.
type batcher struct {
	setup  *core.Setup
	policy batchPolicy
	record func(RequestResult)

	queue   fifo
	samples int
	rec     *telemetry.Recorder
	track   telemetry.TrackID
}

// batchPolicy parameterizes a batcher.
type batchPolicy struct {
	// MaxBatch caps a formed batch, in samples.
	MaxBatch int
	// MaxWaitCycles is the head request's queue-wait deadline.
	MaxWaitCycles int64
	// SLOCycles is the per-request completion deadline from arrival (0: no
	// deadline accounting).
	SLOCycles int64
	// QueueCapSamples bounds the admission queue.
	QueueCapSamples int
}

// formedBatch is one batch taken off the queue, from formation to
// retirement.
type formedBatch struct {
	// Batch is what the machine executes: size, routing and density.
	Batch workload.Batch
	// Samples is the batch's size in samples.
	Samples int

	reqs     []Request
	headWait int64
}

// newBatcher returns an empty batcher over a brought-up machine. Terminal
// outcomes go to record; the "serve" track opens on the machine's recorder.
func newBatcher(setup *core.Setup, policy batchPolicy, record func(RequestResult)) *batcher {
	return &batcher{
		setup:  setup,
		policy: policy,
		record: record,
		rec:    setup.Rec,
		track:  setup.Rec.Track("serve"),
	}
}

// Len returns the number of queued requests.
func (q *batcher) Len() int { return q.queue.Len() }

// Samples returns the queued samples.
func (q *batcher) Samples() int { return q.samples }

// HeadArrival returns the oldest queued request's arrival. The queue must
// not be empty.
func (q *batcher) HeadArrival() int64 { return q.queue.Front().Arrival }

// Due applies the dual fire policy to a non-empty queue: fireAt is the head
// request's queue-wait deadline, and full reports that the batch may fire
// now regardless — the size cap is reached, or the head is a replayed
// request, which is always its own batch.
func (q *batcher) Due() (fireAt int64, full bool) {
	head := q.queue.Front()
	return head.Arrival + q.policy.MaxWaitCycles, q.samples >= q.policy.MaxBatch || head.Routing != nil
}

// Admit queues a request that has arrived, or sheds it when the queue is
// full. A request without a sample count counts as one sample, or, when it
// carries replayed routing, as its units over the graph's units per sample.
func (q *batcher) Admit(req Request) {
	if req.Samples <= 0 {
		req.Samples = 1
		if req.Routing != nil {
			if ups := q.setup.W.Graph.UnitsPerSample; ups > 0 && req.Units > ups {
				req.Samples = req.Units / ups
			}
		}
	}
	now := int64(q.setup.M.Now())
	if q.samples+req.Samples > q.policy.QueueCapSamples {
		q.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Outcome: Shed})
		if q.rec.Enabled() {
			q.rec.Instant(q.track, "serve", "shed", now,
				telemetry.I("request", int64(req.ID)), telemetry.S("reason", "queue-full"))
		}
		return
	}
	q.queue.Push(req)
	q.samples += req.Samples
	if q.rec.Enabled() {
		q.rec.Counter(q.track, "serve", "queue_depth", now, int64(q.samples))
	}
}

// Form takes the next batch off the queue at time now, as batch number
// index. Queued requests whose SLO has already expired are shed first:
// executing them cannot meet the deadline, and they would drag fresh
// requests past theirs. Returns nil when that empties the queue.
func (q *batcher) Form(now int64, index int) *formedBatch {
	slo := q.policy.SLOCycles
	for q.queue.Len() > 0 && slo > 0 && q.queue.Front().Arrival+slo <= now {
		req := q.pop()
		q.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Outcome: Shed})
		if q.rec.Enabled() {
			q.rec.Instant(q.track, "serve", "shed", now,
				telemetry.I("request", int64(req.ID)), telemetry.S("reason", "slo-expired"))
		}
	}
	if q.queue.Len() == 0 {
		return nil
	}
	f := &formedBatch{headWait: now - q.queue.Front().Arrival}
	if q.queue.Front().Routing != nil {
		// Replayed request: its routing is fixed, it is its own batch.
		req := q.pop()
		f.reqs = []Request{req}
		f.Samples = req.Samples
		f.Batch = workload.Batch{Index: index, Units: req.Units, Routing: req.Routing, Density: req.Density}
		return f
	}
	// Count the batch's requests first, so its request list is sized once.
	live, n := q.queue.Live(), 0
	for samples := 0; n < len(live) && live[n].Routing == nil; n++ {
		if n > 0 && samples+live[n].Samples > q.policy.MaxBatch {
			break
		}
		samples += live[n].Samples
	}
	f.reqs = make([]Request, n)
	for i := range f.reqs {
		f.reqs[i] = q.pop()
		f.Samples += f.reqs[i].Samples
	}
	// Routing and the density dyn-value are decided at formation time for
	// the batch's actual size, by the workload's (drifting) generator.
	w := q.setup.W
	units := f.Samples * w.Graph.UnitsPerSample
	f.Batch = workload.Batch{Index: index, Units: units, Routing: w.Gen.Next(q.setup.Src, units)}
	if dg, ok := w.Gen.(workload.DensityGen); ok {
		f.Batch.Density = dg.NextDensity(q.setup.Src)
	}
	return f
}

// Retire records the outcomes of a batch that started executing at start
// and completed at done: each request is served, or deadline-missed past
// its SLO. The serve track gets the batch's span — with its composition and
// the head request's queue wait at formation — and a queue-depth sample.
func (q *batcher) Retire(f *formedBatch, start, done int64) {
	slo := q.policy.SLOCycles
	for _, req := range f.reqs {
		out := Served
		if slo > 0 && done > req.Arrival+slo {
			out = DeadlineMissed
			if q.rec.Enabled() {
				q.rec.Instant(q.track, "serve", "deadline-miss", done,
					telemetry.I("request", int64(req.ID)),
					telemetry.I("late", done-req.Arrival-slo))
			}
		}
		q.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Done: done, Outcome: out})
	}
	if q.rec.Enabled() {
		q.rec.Span(q.track, "serve", "batch", start, done,
			telemetry.I("requests", int64(len(f.reqs))),
			telemetry.I("units", int64(f.Batch.Units)),
			telemetry.I("queue_wait", f.headWait))
		q.rec.Counter(q.track, "serve", "queue_depth", done, int64(q.samples))
	}
}

// Evict empties the queue without recording outcomes and returns its
// requests in arrival order, in an array the batcher no longer uses.
func (q *batcher) Evict() []Request {
	out := q.queue.Release()
	q.samples = 0
	if q.rec.Enabled() {
		q.rec.Counter(q.track, "serve", "queue_depth", int64(q.setup.M.Now()), 0)
	}
	return out
}

func (q *batcher) pop() Request {
	req := q.queue.Pop()
	q.samples -= req.Samples
	return req
}

// fifo is a first-in first-out request queue that keeps its array. Pop
// advances a head index; Push into a full array whose front is at least
// half consumed slides the live requests down instead of growing it, so a
// steady stream stops allocating and Push stays amortized O(1).
type fifo struct {
	buf  []Request
	head int
}

// Len returns the number of queued requests.
func (f *fifo) Len() int { return len(f.buf) - f.head }

// Live returns the queued requests in order, aliasing the queue's array:
// valid until the next Push, Pop or Release.
func (f *fifo) Live() []Request { return f.buf[f.head:] }

// Front returns the oldest queued request. The queue must not be empty.
func (f *fifo) Front() *Request { return &f.buf[f.head] }

// Push appends req.
func (f *fifo) Push(req Request) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, req)
}

// Pop removes and returns the oldest queued request. The queue must not be
// empty.
func (f *fifo) Pop() Request {
	req := f.buf[f.head]
	f.buf[f.head] = Request{} // drop the routing reference
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return req
}

// Release empties the queue and returns its requests in order. The queue
// gives its array up with them, so the caller may keep or grow the result.
func (f *fifo) Release() []Request {
	out := f.buf[f.head:]
	f.buf, f.head = nil, 0
	return out
}
