package serve

import (
	"repro/internal/accel"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Batch-pipelined serving: the PipelineDepth > 1 serving loop. The legacy
// loop (step, in serve.go) freezes admission for the full latency of every
// batch — fireBatch blocks in Machine.Run until the batch drains, so a
// request arriving mid-execution waits for the machine even to be *admitted*,
// and the next batch cannot begin forming until the previous one completes.
// The pipelined loop instead submits batches through the machine's streaming
// API (accel.StreamSubmit) and keeps admitting while they execute: batch
// k+1's admission, batch formation, and drift evaluation overlap batch k's
// compute in virtual time, up to PipelineDepth batches in flight at once.
//
// Pipelined serving is a deliberate semantic variant, not a re-encoding of
// the legacy loop: batch start times, and therefore latencies, differ. What
// it shares with the rest of the repo is the determinism guarantee — the
// same configuration and seed produce a byte-identical outcome log, snapshot
// and trace at any GOMAXPROCS — and the session contract (Begin / Enqueue /
// StepTo / Drain / Finish), so a fleet router can drive pipelined replicas
// unchanged. Three boundaries force a pipeline drain, mirroring the machine
// invariants: a plan swap (LoadPlan requires a drained pipeline), a
// capability change (faults apply between batches), and session Drain.

// pipeEntry is one in-flight batch: its machine ticket plus the request
// composition needed to record outcomes when it retires.
type pipeEntry struct {
	tk       *accel.StreamTicket
	reqs     []Request
	units    int
	formedAt int64
	headWait int64
}

// pipelined reports whether the server runs the batch-pipelined loop.
func (s *Server) pipelined() bool { return s.cfg.PipelineDepth > 1 }

// pipeStep is the pipelined serving loop: the same decision structure as
// step — admission at arrival times, the dual batching policy, horizon
// deferral, fault boundaries — but batch execution is submitted, not awaited.
// The machine clock advances through bounded StepTo slices, so in-flight
// batches progress exactly as far as the interval allows.
func (s *Server) pipeStep(horizon int64, draining bool) error {
	m := s.setup.M
	for {
		now := int64(m.Now())
		if err := s.applyFaults(now); err != nil {
			return err
		}
		s.admitPending(now)
		nextArr := int64(-1)
		if len(s.pending) > 0 && (draining || s.pending[0].Arrival <= horizon) {
			nextArr = s.pending[0].Arrival
		}
		if len(s.queue) == 0 {
			if nextArr >= 0 {
				s.pipeIdle(nextArr)
				continue
			}
			if draining {
				// No arrivals left anywhere: run the tail of the pipeline
				// out and close the session.
				return s.drainInflight(true)
			}
			if now >= horizon {
				return nil
			}
			s.pipeIdle(horizon)
			continue
		}
		fireAt := s.queue[0].Arrival + s.cfg.MaxWaitCycles
		full := s.queuedSamples >= s.cfg.MaxBatch || s.queue[0].Routing != nil
		if !full && now < fireAt {
			if nextArr >= 0 && nextArr < fireAt {
				s.pipeIdle(nextArr)
				continue
			}
			if !draining && horizon < fireAt {
				if now >= horizon {
					return nil
				}
				s.pipeIdle(horizon)
				continue
			}
			s.pipeIdle(fireAt)
			if int64(m.Now()) < fireAt {
				continue // stopped at a fault boundary first
			}
		} else if !draining && now >= horizon {
			// Defer the fire: arrivals at the horizon may still be routed
			// here and belong in this batch (same contract as step).
			return nil
		}
		if err := s.pipeFire(int64(m.Now())); err != nil {
			return err
		}
	}
}

// pipeIdle advances the machine clock to t through the bounded streaming
// StepTo — in-flight batches overlap the idle interval — stopping early at
// the next fault boundary exactly like idleTo.
func (s *Server) pipeIdle(t int64) {
	if s.health != nil {
		if nc, ok := s.health.NextChange(int64(s.setup.M.Now())); ok && nc < t {
			t = nc
		}
	}
	s.setup.M.StepTo(sim.Time(t))
}

// pipeFire forms one batch from the queue head — identical policy to
// fireBatch: expired-SLO shedding, the size cap, replayed-request batches,
// routing and density decided at formation — and submits it to the
// machine's pipeline. When the pipeline window is full the oldest in-flight
// batch retires first, so at most PipelineDepth batches execute
// concurrently.
func (s *Server) pipeFire(now int64) error {
	for len(s.queue) > 0 && s.cfg.SLOCycles > 0 && s.queue[0].Arrival+s.cfg.SLOCycles <= now {
		req := s.popHead()
		s.rep.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Outcome: Shed})
		if s.rec.Enabled() {
			s.rec.Instant(s.serveTrack, "serve", "shed", now,
				telemetry.I("request", int64(req.ID)), telemetry.S("reason", "slo-expired"))
		}
	}
	if len(s.queue) == 0 {
		return nil
	}
	headWait := now - s.queue[0].Arrival
	w := s.setup.W
	var batch []Request
	var b workload.Batch
	if s.queue[0].Routing != nil {
		req := s.popHead()
		batch = []Request{req}
		b = workload.Batch{Index: s.rep.Batches + len(s.inflight), Units: req.Units, Routing: req.Routing, Density: req.Density}
	} else {
		samples := 0
		for len(s.queue) > 0 && s.queue[0].Routing == nil {
			if len(batch) > 0 && samples+s.queue[0].Samples > s.cfg.MaxBatch {
				break
			}
			req := s.popHead()
			samples += req.Samples
			batch = append(batch, req)
		}
		units := samples * w.Graph.UnitsPerSample
		b = workload.Batch{Index: s.rep.Batches + len(s.inflight), Units: units, Routing: w.Gen.Next(s.setup.Src, units)}
		if dg, ok := w.Gen.(workload.DensityGen); ok {
			b.Density = dg.NextDensity(s.setup.Src)
		}
	}
	for len(s.inflight) >= s.cfg.PipelineDepth {
		if err := s.retireOldest(true); err != nil {
			return err
		}
	}
	tk, err := s.setup.M.StreamSubmit(b)
	if err != nil {
		return err
	}
	s.inflight = append(s.inflight, &pipeEntry{
		tk: tk, reqs: batch, units: b.Units,
		formedAt: int64(tk.Start()), headWait: headWait,
	})
	return nil
}

// retireOldest waits out the oldest in-flight batch, records its outcomes at
// its completion time, and — when check is set — runs the drift check at the
// legacy cadence. Retirement order is submission order, so the outcome log
// stays deterministic even when a later batch's events resolve first.
func (s *Server) retireOldest(check bool) error {
	e := s.inflight[0]
	s.inflight = s.inflight[1:]
	doneT, err := s.setup.M.StreamRetire(e.tk)
	if err != nil {
		return err
	}
	done := int64(doneT)
	for _, req := range e.reqs {
		out := Served
		if s.cfg.SLOCycles > 0 && done > req.Arrival+s.cfg.SLOCycles {
			out = DeadlineMissed
			if s.rec.Enabled() {
				s.rec.Instant(s.serveTrack, "serve", "deadline-miss", done,
					telemetry.I("request", int64(req.ID)),
					telemetry.I("late", done-req.Arrival-s.cfg.SLOCycles))
			}
		}
		s.rep.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Done: done, Outcome: out})
	}
	if s.rec.Enabled() {
		s.rec.Span(s.serveTrack, "serve", "batch", e.formedAt, done,
			telemetry.I("requests", int64(len(e.reqs))),
			telemetry.I("units", int64(e.units)),
			telemetry.I("queue_wait", e.headWait))
		s.rec.Counter(s.serveTrack, "serve", "queue_depth", done, int64(s.queuedSamples))
	}
	s.rep.Batches++
	s.sinceResched++
	if check && s.cfg.Reschedule && s.rep.Batches%s.cfg.CheckEvery == 0 {
		return s.maybeReschedule()
	}
	return nil
}

// drainInflight retires every in-flight batch in submission order without
// running drift checks — it is called on the way into a re-plan or a
// capability change (a re-plan is imminent or the hardware is about to
// change, so an intermediate drift decision would be stale) and at session
// drain. final additionally runs the machine's deadlock diagnostic once the
// last ticket resolves.
func (s *Server) drainInflight(final bool) error {
	for len(s.inflight) > 0 {
		if err := s.retireOldest(false); err != nil {
			return err
		}
	}
	if final {
		return s.setup.M.StreamDrain()
	}
	return nil
}
