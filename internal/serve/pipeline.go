package serve

import (
	"repro/internal/accel"
	"repro/internal/sim"
)

// The serving loop. Batches go to the machine through its streaming API
// (accel.StreamSubmit) and retire in submission order (StreamRetire). Up to
// PipelineDepth batches are in flight at once: batch k+1's admission,
// formation and drift evaluation overlap batch k's compute in virtual time.
// At depth 1 (and 0) each batch retires right after it is submitted, before
// the next one forms, so admission waits out every batch's execution.
//
// The loop is deterministic at any depth — the same configuration and seed
// produce a byte-identical outcome log, snapshot and trace at any
// GOMAXPROCS — and every depth shares the session contract (Begin /
// Enqueue / Step / StepTo / Drain / Finish), so a fleet router or the
// multi-tenant front-end drives servers the same way whatever their depth. Three boundaries force a pipeline drain,
// mirroring the machine invariants: a plan swap (LoadPlan requires a drained
// pipeline), a capability change (faults apply between batches), and
// session Drain.

// pipeEntry is one in-flight batch: its machine ticket plus the formed batch
// whose outcomes it records when it retires.
type pipeEntry struct {
	tk    *accel.StreamTicket
	batch *formedBatch
}

// StepKind names the action one Step took.
type StepKind uint8

// The actions of one serving-loop step.
const (
	// StepIdled: the clock advanced toward the next arrival, wait deadline,
	// horizon or fault boundary — or a formed batch shed entirely.
	StepIdled StepKind = iota
	// StepFaulted: a capability change was applied that the server does not
	// re-plan for itself (Reschedule off). No batch formed.
	StepFaulted
	// StepFired: one batch formed and was submitted; at depth 1 it also
	// retired.
	StepFired
	// StepDone: control returns to the caller — the horizon was reached
	// (StepTo) or, draining, nothing is left queued, pending or in flight.
	StepDone
)

// step takes one action of the serving loop StepTo (bounded by horizon) and
// Drain (draining ignores the horizon: no more arrivals can ever be routed
// here) repeat: it folds in fault events, admits at arrival times, then
// idles, fires under the dual batching policy, or returns control — a
// decision at the horizon is deferred. The machine clock advances through
// bounded StepTo slices, so in-flight batches progress exactly as far as the
// interval allows.
func (s *Server) step(horizon int64, draining bool) (StepKind, error) {
	m := s.setup.M
	now := int64(m.Now())
	// Fold any fault events that struck (or repaired) by now into the
	// machine before more work is placed on it.
	if changed, err := s.applyFaults(now); err != nil {
		return StepDone, err
	} else if changed && !s.cfg.Reschedule {
		return StepFaulted, nil
	}
	s.Admit(now)
	// The next pending arrival bounds every idle jump below: admission
	// happens at arrival time.
	nextArr := int64(-1)
	if len(s.pending) > 0 && (draining || s.pending[0].Arrival <= horizon) {
		nextArr = s.pending[0].Arrival
	}
	if s.batcher.Len() == 0 {
		switch {
		case nextArr >= 0:
			s.pipeIdle(nextArr)
		case draining:
			// No arrivals left anywhere: run the tail of the pipeline out
			// and close the session.
			return StepDone, s.drainInflight(true)
		case now >= horizon:
			return StepDone, nil
		default:
			s.pipeIdle(horizon)
		}
		return StepIdled, nil
	}
	fireAt, full := s.batcher.Due()
	if !full && now < fireAt {
		if nextArr >= 0 && nextArr < fireAt {
			s.pipeIdle(nextArr)
			return StepIdled, nil
		}
		if !draining && horizon < fireAt {
			// The wait deadline lies past the horizon: future arrivals
			// could still join this batch. Hand control back.
			if now >= horizon {
				return StepDone, nil
			}
			s.pipeIdle(horizon)
			return StepIdled, nil
		}
		// No arrival can land before the wait deadline: idle to the
		// deadline and fire the partial batch.
		s.pipeIdle(fireAt)
		if int64(m.Now()) < fireAt {
			return StepIdled, nil // stopped at a fault boundary first
		}
	} else if !draining && now >= horizon {
		// Full batch (or expired deadline), but the decision time has
		// reached the horizon: arrivals at the horizon may still be
		// routed here and belong in this batch. Defer the fire.
		return StepDone, nil
	}
	return s.pipeFire(int64(m.Now()))
}

// pipeIdle advances the machine clock to t through the bounded streaming
// StepTo — in-flight batches overlap the idle interval — stopping early at
// the next fault boundary (strike or repair) so capability changes are
// observed at their scheduled time even across long idle gaps.
func (s *Server) pipeIdle(t int64) {
	if s.health != nil {
		if nc, ok := s.health.NextChange(int64(s.setup.M.Now())); ok && nc < t {
			t = nc
		}
	}
	s.setup.M.StepTo(sim.Time(t))
}

// pipeFire forms one batch from the queue head and submits it to the
// machine's pipeline. When the pipeline window is full the oldest in-flight
// batch retires first, so at most PipelineDepth batches execute
// concurrently; at depth 1 the batch retires before pipeFire returns.
// Reports StepIdled when formation shed the whole queue.
func (s *Server) pipeFire(now int64) (StepKind, error) {
	f := s.batcher.Form(now, s.rep.Batches+len(s.inflight))
	if f == nil {
		return StepIdled, nil
	}
	for len(s.inflight) >= s.cfg.PipelineDepth {
		if err := s.retireOldest(true); err != nil {
			return StepFired, err
		}
	}
	tk, err := s.setup.M.StreamSubmit(f.Batch)
	if err != nil {
		return StepFired, err
	}
	s.inflight = append(s.inflight, &pipeEntry{tk: tk, batch: f})
	if s.cfg.PipelineDepth == 1 {
		return StepFired, s.retireOldest(true)
	}
	return StepFired, nil
}

// retireOldest waits out the oldest in-flight batch, records its outcomes at
// its completion time, and — when check is set — runs the drift check every
// CheckEvery batches. Retirement order is submission order, so the outcome
// log stays deterministic even when a later batch's events resolve first.
func (s *Server) retireOldest(check bool) error {
	e := s.inflight[0]
	s.inflight = s.inflight[1:]
	done, err := s.setup.M.StreamRetire(e.tk)
	if err != nil {
		return err
	}
	s.batcher.Retire(e.batch, int64(e.tk.Start()), int64(done))
	s.busy += int64(done - e.tk.Start())
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
