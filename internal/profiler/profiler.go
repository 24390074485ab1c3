// Package profiler models Adyna's hardware profiler (Figure 7): per-operator
// frequency track tables of observed dyn_dim values plus per-switch branch
// co-activation statistics. The profiler runs inside each tile's controller;
// here it is a single object the simulator feeds after every batch, which
// periodically reports to the scheduler for frequency-weighted allocation,
// tile-sharing pairing and multi-kernel re-sampling.
package profiler

import (
	"fmt"

	"repro/internal/graph"
)

// Profiler accumulates runtime statistics for one dynamic operator graph.
type Profiler struct {
	g   *graph.Graph
	dyn []graph.OpID // g.DynamicOps(), fixed for the graph's lifetime
	// coact[sw][i][j] counts batches in which branches i and j of switch sw
	// were both active (received at least one unit).
	coact map[graph.OpID][][]int64
	// active[sw][i] counts batches in which branch i was active.
	active map[graph.OpID][]int64
	// units[sw][i] counts the units switch sw routed to branch i. Where the
	// active counters capture per-batch presence, these capture volume — the
	// statistic frequency-weighted allocation is actually built from, and the
	// one the serving layer's drift detector compares against its plan.
	units   map[graph.OpID][]int64
	batches int64

	// Density window (graphs with density-aware operators only): the sum and
	// count of observed batch densities since bring-up, halved together by
	// Reset so the mean is an exponential window like every other statistic.
	hasDensity bool
	densSum    float64
	densCount  float64
}

// New returns a profiler attached to g. Observations are written into the
// graph's per-operator frequency tables (the tables travel with the graph, as
// in Figure 5) and into internal co-activation counters.
func New(g *graph.Graph) *Profiler {
	p := &Profiler{
		g:      g,
		dyn:    g.DynamicOps(),
		coact:  map[graph.OpID][][]int64{},
		active: map[graph.OpID][]int64{},
		units:  map[graph.OpID][]int64{},
	}
	for _, swID := range g.Switches() {
		n := g.Op(swID).NumBranches
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
		}
		p.coact[swID] = m
		p.active[swID] = make([]int64, n)
		p.units[swID] = make([]int64, n)
	}
	p.hasDensity = len(g.DensityOps()) > 0
	return p
}

// ObserveBatch records one batch: the concrete units of every dynamic
// operator, which branches of every switch were active, and the batch's
// density dyn-value. An unset density (<= 0) counts as fully dense; graphs
// without density-aware operators keep no density window.
func (p *Profiler) ObserveBatch(units map[graph.OpID]int, rt graph.BatchRouting, density float64) error {
	for _, id := range p.dyn {
		u, ok := units[id]
		if !ok {
			return fmt.Errorf("profiler: no unit count for dynamic op %s", p.g.Op(id).Name)
		}
		p.g.Op(id).Freq.Observe(u)
	}
	for sw, r := range rt {
		m, ok := p.coact[sw]
		if !ok {
			return fmt.Errorf("profiler: routing for unknown switch %d", sw)
		}
		ub := p.units[sw]
		for i := range r.Branch {
			if i < len(ub) {
				ub[i] += int64(len(r.Branch[i]))
			}
			if len(r.Branch[i]) == 0 {
				continue
			}
			p.active[sw][i]++
			for j := i + 1; j < len(r.Branch); j++ {
				if len(r.Branch[j]) > 0 {
					m[i][j]++
					m[j][i]++
				}
			}
		}
	}
	p.batches++
	if p.hasDensity {
		if density <= 0 || density > 1 {
			density = 1
		}
		p.densSum += density
		p.densCount++
	}
	return nil
}

// OpDensityMean returns the windowed mean density observed across the
// graph's density-aware operators — the profile statistic the scheduler
// sizes sparse work by, the drift detector compares against its plan
// reference, and the plan-cache keyer fingerprints. With no observations (or
// a graph without density-aware operators) it returns 1: assume dense.
func (p *Profiler) OpDensityMean() float64 {
	if p.densCount == 0 {
		return 1
	}
	return p.densSum / p.densCount
}

// Batches returns the number of batches observed since the last Reset.
func (p *Profiler) Batches() int64 { return p.batches }

// CoActivation returns the fraction of observed batches in which branches i
// and j of switch sw were simultaneously active. With no observations — or an
// unknown switch or out-of-range branch index — it returns 1 (assume the
// worst: always together).
func (p *Profiler) CoActivation(sw graph.OpID, i, j int) float64 {
	if p.batches == 0 {
		return 1
	}
	m, ok := p.coact[sw]
	if !ok || i < 0 || j < 0 || i >= len(m) || j >= len(m) {
		return 1
	}
	return float64(m[i][j]) / float64(p.batches)
}

// BranchActiveFraction returns how often branch i of switch sw received any
// units. With no observations — or an unknown switch or out-of-range branch
// index — it returns 1.
func (p *Profiler) BranchActiveFraction(sw graph.OpID, i int) float64 {
	if p.batches == 0 {
		return 1
	}
	a, ok := p.active[sw]
	if !ok || i < 0 || i >= len(a) {
		return 1
	}
	return float64(a[i]) / float64(p.batches)
}

// BranchUnitShare returns the fraction of all units switch sw routed that
// went to branch i over the observation window. With no observed volume (or
// an unknown switch / out-of-range index) it returns 0: unlike the per-batch
// statistics there is no worst case to assume — absent volume is itself the
// signal. For non-exclusive switches (top-k MoE) the shares are normalized
// over the routed copies, so they still sum to 1 across branches.
func (p *Profiler) BranchUnitShare(sw graph.OpID, i int) float64 {
	ub, ok := p.units[sw]
	if !ok || i < 0 || i >= len(ub) {
		return 0
	}
	var total int64
	for _, n := range ub {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(ub[i]) / float64(total)
}

// LeastCoActivePair returns the pair of branches of sw with the lowest
// co-activation frequency — the pair the tile-sharing optimization shares a
// tile between (Section V-B: "the two branches that are least likely to be
// activated at the same time"). It returns ok=false for switches with fewer
// than two branches.
func (p *Profiler) LeastCoActivePair(sw graph.OpID) (i, j int, ok bool) {
	m, found := p.coact[sw]
	if !found || len(m) < 2 {
		return 0, 0, false
	}
	best := int64(1<<62 - 1)
	for a := 0; a < len(m); a++ {
		for b := a + 1; b < len(m); b++ {
			if m[a][b] < best {
				best, i, j = m[a][b], a, b
			}
		}
	}
	return i, j, true
}

// Reset clears the window: frequency tables decay (keeping distribution
// shape, aging out stale history) and co-activation counters clear. Called
// after each periodic report to the scheduler.
func (p *Profiler) Reset() {
	for _, id := range p.dyn {
		p.g.Op(id).Freq.Decay()
	}
	for sw, m := range p.coact {
		for i := range m {
			for j := range m[i] {
				m[i][j] /= 2
			}
		}
		for i := range p.active[sw] {
			p.active[sw][i] /= 2
		}
		for i := range p.units[sw] {
			p.units[sw][i] /= 2
		}
	}
	p.batches /= 2
	// Halving sum and count together preserves the density mean across the
	// window boundary while giving post-Reset observations double weight.
	p.densSum /= 2
	p.densCount /= 2
}
