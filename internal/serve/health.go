package serve

import (
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// Health detection: the serving-side half of the fault story. The machine
// executes on degraded hardware the moment a fault strikes (capability is
// applied between batches); what the server adds is the *response* — when
// re-scheduling is enabled, a capability change triggers an emergency
// re-plan over the surviving tiles, computed host-side off the request hot
// path exactly like a drift re-schedule. Only the plan swap (pipeline drain
// plus kernel-store reload) lands on the machine clock. A frozen-plan server
// (Reschedule off) still suffers the faults — failed tiles fold their work
// onto region survivors — it just never adapts, which is the baseline the
// -compare mode measures against.

// liveHW returns the hardware config the scheduler should plan for right
// now: the configured chip (or the partition Repartition moved the server
// onto) with the current fault capability composed onto it.
func (s *Server) liveHW() hw.Config {
	if s.health == nil {
		return s.cfg.RC.HW
	}
	return s.health.Capability().Apply(s.cfg.RC.HW)
}

// setCapability installs liveHW's mask and derates on the machine.
func (s *Server) setCapability() error {
	live := s.liveHW()
	return s.setup.M.SetCapability(live.FailedTiles, live.NoCDerate, live.HBMDerate)
}

// applyFaults folds the fault schedule into the machine at time now and
// reports whether the capability changed. On a change the hardware is
// updated immediately; with re-scheduling enabled a new plan for the
// surviving tiles is swapped in as well.
func (s *Server) applyFaults(now int64) (bool, error) {
	if s.health == nil {
		return false, nil
	}
	cap, changed := s.health.At(now)
	if !changed {
		return false, nil
	}
	s.rep.FaultEvents++
	// Capability changes apply between batches: in-flight batches retire
	// first — they were submitted under the old capability and complete
	// under it — before the hardware changes.
	if err := s.drainInflight(false); err != nil {
		return true, err
	}
	if err := s.setCapability(); err != nil {
		return true, err
	}
	if s.rec.Enabled() {
		s.rec.Instant(s.faultTrack, "fault", "capability", now,
			telemetry.I("failed_tiles", int64(cap.Failed.Count())),
			telemetry.F("noc", cap.NoC), telemetry.F("hbm", cap.HBM),
			telemetry.B("reschedule", s.cfg.Reschedule))
	}
	if s.cfg.Reschedule {
		return true, s.healthReschedule()
	}
	return true, nil
}

// healthReschedule is the emergency re-plan after a capability change: a
// fresh schedule over the surviving tiles at the degraded bandwidths, built
// from the live profile. Mirrors the drift path's accounting — the swap cost
// is charged to the machine clock, the profile window restarts, and the
// drift reference rebases on the profile the new plan was built from.
func (s *Server) healthReschedule() error {
	swap, err := s.replan(s.faultTrack, "fault")
	if err != nil {
		return err
	}
	if s.rec.Enabled() {
		s.rec.Instant(s.faultTrack, "fault", "health-reschedule", int64(s.setup.M.Now()),
			telemetry.I("swap_cycles", swap))
	}
	s.rep.HealthReschedules++
	return nil
}

// healthState builds the fault tracker for a config (nil when no faults are
// scheduled, which keeps the fault-free hot path untouched).
func healthState(sched *faults.Schedule) *faults.State {
	if sched.Empty() {
		return nil
	}
	return faults.NewState(sched)
}
