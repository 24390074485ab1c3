package plancache

import (
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/profiler"
	"repro/internal/sched"
)

// AOT precompute: the DyCL move applied to whole plans. At bring-up the
// serving layer knows two things the runtime will later pay to rediscover —
// how the routing distribution can tilt (along each switch's branch simplex)
// and which degraded chips it may wake up on (the fault schedule's known
// windows, single-tile losses). Precompute solves those variants while the
// machine is still cold and stores them, so the first drift excursion or
// capability change dispatches a cached plan instead of stalling on a fresh
// solve. Synthetic profiles are fed to a scratch profiler over cloned
// frequency tables; the live graph and profiler are left untouched.

var (
	// tiltLevels are the interpolation weights Precompute walks from the
	// base profile toward each branch's simplex corner.
	tiltLevels = [...]float64{0.35, 0.7}
	// densityLevels are the density means Precompute solves at the base
	// routing profile. Only used on graphs with density-aware operators;
	// elsewhere the density lattice is empty.
	densityLevels = [...]float64{0.25, 0.5, 0.75, 1}
)

// AOTConfig parameterizes Precompute.
type AOTConfig struct {
	// Batches is the synthetic observation window fed per lattice point
	// (default 40, the paper's reconfiguration period).
	Batches int
	// BatchUnits is the unit count of each synthetic batch (default 32 *
	// the graph's units per sample).
	BatchUnits int
	// Faults optionally contributes the schedule's degraded configurations:
	// every distinct capability the schedule will produce, composed onto the
	// base config by faults.Capability.Apply exactly as the serving layer
	// composes it at run time (a partition's mask and HBM share included),
	// is solved at the base profile.
	Faults *faults.Schedule
	// SingleTileLoss additionally solves every single-tile-failure variant
	// of the base config (one solve per live tile — thorough, but the
	// expensive option).
	SingleTileLoss bool
}

func (a *AOTConfig) defaults(g *graph.Graph) {
	if a.Batches <= 0 {
		a.Batches = 40
	}
	if a.BatchUnits <= 0 {
		ups := g.UnitsPerSample
		if ups <= 0 {
			ups = 1
		}
		a.BatchUnits = 32 * ups
	}
}

// Precompute populates the cache ahead of time from the given base inputs:
// one plan per profile-lattice point (each switch's branch simplex walked at
// the tilt levels, other switches held at the base profile) and one plan
// per likely degraded hardware config (the fault schedule's
// capability windows, plus every single-tile loss when requested) at the
// base profile. Points whose fingerprint is already cached are skipped, and
// points the scheduler rejects (for example a degraded chip too small for
// the policy) are silently dropped — precompute is best-effort coverage, not
// a correctness gate. Every solve compiles through comp, the compile memo of
// the caller's graph bring-up. Returns the number of plans added.
func (c *Cache) Precompute(cfg hw.Config, comp *sched.Compiler, pol sched.Policy, prof *profiler.Profiler, ao AOTConfig) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := comp.Graph()
	ao.defaults(g)
	added := 0

	// Degraded hardware variants, solved from the live profile.
	for _, dcfg := range c.degradedConfigs(cfg, ao) {
		k := c.keyer.makeKey(dcfg, g, pol, prof)
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

	// Profile lattice, solved at the base config over synthetic profiles.
	for _, pt := range c.lattice(prof) {
		if c.precomputePoint(cfg, comp, pol, pt, ao) {
			added++
		}
	}
	return added
}

// latticePoint is one synthetic profile Precompute solves: per-switch branch
// unit shares and a density mean.
type latticePoint struct {
	shares  [][]float64
	density float64
}

// lattice enumerates the profile points Precompute solves at the base
// config: each switch's branch simplex walked at the tilt levels, at the
// live density. On density-aware graphs the base routing is additionally
// walked along the density lattice — the drift direction the sparsity axis
// adds.
func (c *Cache) lattice(prof *profiler.Profiler) []latticePoint {
	baseDens := prof.OpDensityMean()
	base := c.baseShares(prof)
	var pts []latticePoint
	for si := range c.keyer.sws {
		for b := 0; b < c.keyer.nb[si]; b++ {
			for _, tilt := range tiltLevels {
				pts = append(pts, latticePoint{tiltShares(base, si, b, tilt), baseDens})
			}
		}
	}
	if c.keyer.hasDensity {
		for _, d := range densityLevels {
			pts = append(pts, latticePoint{base, d})
		}
	}
	return pts
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
// distinct capability the fault schedule steps through, and optionally every
// single-tile loss.
func (c *Cache) degradedConfigs(cfg hw.Config, ao AOTConfig) []hw.Config {
	var out []hw.Config
	seen := map[hw.Config]bool{cfg: true}
	add := func(dc hw.Config) {
		if !seen[dc] {
			seen[dc] = true
			out = append(out, dc)
		}
	}
	if !ao.Faults.Empty() {
		st := faults.NewState(ao.Faults)
		t := int64(0)
		for {
			nc, ok := st.NextChange(t)
			if !ok {
				break
			}
			cap, _ := st.At(nc)
			add(cap.Apply(cfg))
			t = nc
		}
	}
	if ao.SingleTileLoss {
		for t := 0; t < cfg.Tiles(); t++ {
			if cfg.TileFailed(t) {
				continue
			}
			dc := cfg
			dc.FailedTiles = cfg.FailedTiles.Or(hw.NewTileMask(t))
			add(dc)
		}
	}
	return out
}

// baseShares snapshots the live per-switch unit-share vectors the lattice
// tilts away from; switches with no observed volume fall back to uniform.
func (c *Cache) baseShares(prof *profiler.Profiler) [][]float64 {
	base := make([][]float64, len(c.keyer.sws))
	for i, sw := range c.keyer.sws {
		v := make([]float64, c.keyer.nb[i])
		total := 0.0
		for b := range v {
			v[b] = prof.BranchUnitShare(sw, b)
			total += v[b]
		}
		if total <= 0 {
			for b := range v {
				v[b] = 1 / float64(len(v))
			}
		}
		base[i] = v
	}
	return base
}

// tiltShares interpolates the base profile toward switch si's branch-b
// simplex corner: shares' = (1-tilt)*base + tilt*e_b on that switch, base
// elsewhere.
func tiltShares(base [][]float64, si, b int, tilt float64) [][]float64 {
	out := make([][]float64, len(base))
	for i, v := range base {
		if i != si {
			out[i] = v
			continue
		}
		t := make([]float64, len(v))
		for k := range v {
			t[k] = (1 - tilt) * v[k]
		}
		t[b] += tilt
		out[i] = t
	}
	return out
}

// precomputePoint solves one profile lattice point at cfg and stores the
// plan. Returns whether a plan was added.
func (c *Cache) precomputePoint(cfg hw.Config, comp *sched.Compiler, pol sched.Policy, pt latticePoint, ao AOTConfig) bool {
	added := false
	c.withSyntheticProfile(comp.Graph(), pt, ao, func(sp *profiler.Profiler) {
		k := c.keyer.makeKey(cfg, comp.Graph(), pol, sp)
		if _, ok := c.peek(k); ok {
			return
		}
		plan, err := comp.Schedule(cfg, pol, sp)
		if err != nil {
			return
		}
		c.put(k, plan, true, "")
		added = true
	})
	return added
}

// withSyntheticProfile synthesizes one profile lattice point — a scratch
// profiler fed Batches synthetic batches routed to the point's shares at its
// density over cloned frequency tables — and calls fn with it while the
// clones are installed in g. The live frequency tables are restored before
// it returns; fn is not called if the point cannot be synthesized.
func (c *Cache) withSyntheticProfile(g *graph.Graph, pt latticePoint, ao AOTConfig, fn func(*profiler.Profiler)) {
	rt := c.synthRouting(pt.shares, ao.BatchUnits)
	units, err := g.AssignUnits(ao.BatchUnits, rt)
	if err != nil {
		return
	}
	// Swap every dynamic operator's frequency table for a clone so the
	// synthetic observations never touch live profile state.
	orig := make([]*graph.FreqTable, len(c.keyer.dyn))
	for i, id := range c.keyer.dyn {
		orig[i] = g.Op(id).Freq
		if orig[i] != nil {
			g.Op(id).Freq = orig[i].Clone()
		}
	}
	defer func() {
		for i, id := range c.keyer.dyn {
			g.Op(id).Freq = orig[i]
		}
	}()
	sp := profiler.New(g)
	for b := 0; b < ao.Batches; b++ {
		if err := sp.ObserveBatch(units, rt, pt.density); err != nil {
			return
		}
	}
	fn(sp)
}

// synthRouting builds one batch's routing hitting the target per-switch
// branch shares: each switch's units are apportioned by largest remainder
// and assigned as contiguous index runs.
func (c *Cache) synthRouting(shares [][]float64, units int) graph.BatchRouting {
	rt := graph.BatchRouting{}
	for i, sw := range c.keyer.sws {
		counts := apportion(shares[i], units)
		br := make([][]int, len(counts))
		idx := 0
		for b, n := range counts {
			if n == 0 {
				continue
			}
			run := make([]int, n)
			for j := range run {
				run[j] = idx
				idx++
			}
			br[b] = run
		}
		rt[sw] = graph.Routing{Branch: br}
	}
	return rt
}

// apportion splits units across branches proportionally to shares, summing
// exactly to units (largest-remainder rounding, lower index wins ties).
func apportion(shares []float64, units int) []int {
	counts := make([]int, len(shares))
	total := 0.0
	for _, s := range shares {
		if s > 0 {
			total += s
		}
	}
	if total <= 0 || units <= 0 {
		return counts
	}
	assigned := 0
	rem := make([]float64, len(shares))
	for i, s := range shares {
		if s < 0 {
			s = 0
		}
		exact := s / total * float64(units)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < units {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		assigned++
	}
	return counts
}
