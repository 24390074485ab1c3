package plancache

import (
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/profiler"
	"repro/internal/sched"
)

// AOT precompute: the DyCL move applied to whole plans. At bring-up the
// serving layer already knows which degraded chips it will wake up on — the
// fault schedule's windows are fixed in advance, unlike the drifting profile.
// Precompute solves each of those configs at the live profile while the
// machine is still cold and stores them, so the first capability change
// dispatches a cached plan instead of stalling on a fresh solve.

// Precompute populates the cache ahead of time with one plan per degraded
// hardware config the fault schedule fs will produce, each solved at the
// live profile. Every distinct capability the schedule steps through is
// composed onto cfg by faults.Capability.Apply exactly as the serving layer
// composes it at run time (a partition's mask and HBM share included).
// Configs whose fingerprint is already cached are skipped, and configs the
// scheduler rejects (for example a degraded chip too small for the policy)
// are silently dropped — precompute is best-effort coverage, not a
// correctness gate. Every solve compiles through comp, the compile memo of
// the caller's graph. Returns the number of plans added; an empty
// or nil schedule adds none.
func (c *Cache) Precompute(cfg hw.Config, comp *sched.Compiler, pol sched.Policy, prof *profiler.Profiler, fs *faults.Schedule) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, dcfg := range degradedConfigs(cfg, fs) {
		k := c.keyer.makeKey(dcfg, pol, prof)
		if _, ok := c.peek(k); ok {
			continue
		}
		plan, err := comp.Schedule(dcfg, pol, prof)
		if err != nil {
			continue
		}
		c.put(k, plan, true, "")
		added++
	}
	return added
}

// peek reports whether a fingerprint-identical entry exists, without
// touching the hit/miss counters.
func (c *Cache) peek(k key) (*sched.Plan, bool) {
	b := c.buckets[k.scope]
	if b == nil {
		return nil, false
	}
	e, ok := b.byFP[k.fp]
	if !ok {
		return nil, false
	}
	return e.plan, true
}

// degradedConfigs enumerates the hardware variants worth pre-solving: every
// distinct capability the fault schedule steps through, composed onto cfg,
// in the order the schedule reaches them. cfg itself is never listed.
func degradedConfigs(cfg hw.Config, fs *faults.Schedule) []hw.Config {
	if fs.Empty() {
		return nil
	}
	var out []hw.Config
	seen := map[hw.Config]bool{cfg: true}
	st := faults.NewState(fs)
	for t := int64(0); ; {
		nc, ok := st.NextChange(t)
		if !ok {
			break
		}
		cap, _ := st.At(nc)
		if dc := cap.Apply(cfg); !seen[dc] {
			seen[dc] = true
			out = append(out, dc)
		}
		t = nc
	}
	return out
}
