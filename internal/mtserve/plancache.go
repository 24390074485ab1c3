package mtserve

import (
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/plancache"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Plan-cache plumbing for the multi-tenant layer. Each tenant owns a cache
// (its plans are solved against its own graph instance), but tenants of the
// same model share one keyer — the builder assigns identical OpIDs to
// identical model constructions, so one switch/dynamic-op enumeration serves
// them all. The two re-plan sites — the repartition controller's
// applyPartition and the per-tenant fault response — route through
// lookupOrSchedule, so a tenant returning to a previously-held partition
// (same mask, same HBM share, near or identical profile) dispatches the
// plan it already solved instead of re-running the scheduler.

// keyerFor returns the shared keyer for a tenant's model, creating it on
// first use.
func (s *Server) keyerFor(ts *tenantState) *plancache.Keyer {
	if s.keyers == nil {
		s.keyers = map[string]*plancache.Keyer{}
	}
	k, ok := s.keyers[ts.ten.Model]
	if !ok {
		k = plancache.NewKeyer(ts.setup.W.Graph, 0)
		s.keyers[ts.ten.Model] = k
	}
	return k
}

// setupPlanCache builds a tenant's cache right after bring-up: seeded with
// the bring-up plan (the profiler still holds the warmup state that plan was
// solved from) and, when AOT is on, precomputed over the profile lattice and
// the fault schedule's degraded windows composed the way this layer composes
// them (partition mask ∪ global failures, HBM share × global derate).
//
// The cache is homed at the tenant's *effective* runtime config, not the
// bring-up config: partial-chip tenants run HBM-derated by their bandwidth
// share (Capability.Apply folds it in), and every runtime re-plan keys on
// that composition. An entry stored under the underated bring-up scope would
// never be matchable.
func (s *Server) setupPlanCache(ts *tenantState, bringupHW hw.Config) {
	if !s.cfg.PlanCache {
		return
	}
	ts.pcache = plancache.New(s.keyerFor(ts), plancache.Config{
		Nearest: s.cfg.PlanCacheNearest,
		MaxDist: s.cfg.PlanCacheMaxDist,
	})
	g := ts.setup.W.Graph
	prof := ts.setup.M.Profiler()
	effHW := s.tenantHW(ts, faults.Capability{NoC: 1, HBM: 1})
	if effHW == bringupHW {
		ts.pcache.Put(bringupHW, g, ts.setup.Policy, prof, ts.setup.Plan)
	} else if plan, err := ts.setup.Comp.Schedule(effHW, ts.setup.Policy, prof); err == nil {
		// The bring-up plan was solved before the bandwidth share applied;
		// seed an honest solve at the effective scope instead.
		ts.pcache.Put(effHW, g, ts.setup.Policy, prof, plan)
	}
	if !s.cfg.PlanCacheAOT {
		return
	}
	ao := plancache.AOTConfig{BatchUnits: s.cfg.MaxBatch * g.UnitsPerSample}
	if !s.cfg.Faults.Empty() {
		st := faults.NewState(s.cfg.Faults)
		t := int64(0)
		for {
			nc, ok := st.NextChange(t)
			if !ok {
				break
			}
			c, _ := st.At(nc)
			ao.ExtraConfigs = append(ao.ExtraConfigs, s.tenantHW(ts, c))
			t = nc
		}
	}
	ts.pcache.Precompute(effHW, ts.setup.Comp, ts.setup.Policy, prof, ao)
}

// tenantHW composes the tenant's effective hardware config under a global
// capability: its partition complement and the base mask fold into the
// failed set, its HBM share scales the global derate.
func (s *Server) tenantHW(ts *tenantState, c faults.Capability) hw.Config {
	eff := faults.Capability{
		Failed: ts.ownFailed.Or(s.baseFailed).Or(c.Failed),
		NoC:    c.NoC,
		HBM:    ts.share * c.HBM,
	}
	return eff.Apply(s.base)
}

// lookupOrSchedule is the tenant re-plan entry point: a cache lookup when
// the cache is on, a fresh solve otherwise (and on every miss). Misses with
// HostReschedCycles configured charge the host solve into the tenant's
// virtual time before the swap can happen — hits dispatch immediately.
func (s *Server) lookupOrSchedule(ts *tenantState, cfg hw.Config) (*sched.Plan, plancache.HitKind, error) {
	m := ts.setup.M
	var plan *sched.Plan
	kind := plancache.Miss
	var err error
	if ts.pcache != nil {
		plan, kind, err = ts.pcache.GetOrSchedule(cfg, ts.setup.Comp, ts.setup.Policy, m.Profiler())
	} else {
		plan, err = ts.setup.Comp.Schedule(cfg, ts.setup.Policy, m.Profiler())
	}
	if err != nil {
		return nil, kind, err
	}
	switch kind {
	case plancache.HitExact:
		ts.rep.PlanCacheExact++
	case plancache.HitNearest:
		ts.rep.PlanCacheNearest++
	default:
		if ts.pcache != nil {
			ts.rep.PlanCacheMisses++
		}
		if s.cfg.HostReschedCycles > 0 {
			m.AdvanceTo(m.Now() + sim.Time(s.cfg.HostReschedCycles))
			ts.rep.HostSolveCycles += s.cfg.HostReschedCycles
		}
	}
	if ts.rec.Enabled() && ts.pcache != nil {
		st := ts.pcache.Stats()
		ts.rec.Instant(ts.batcher.Track(), "serve", "plan-cache", ts.clock(),
			telemetry.S("result", kind.String()),
			telemetry.I("entries", int64(st.Entries)),
			telemetry.I("hits", st.Hits()), telemetry.I("misses", st.Misses))
	}
	return plan, kind, nil
}
