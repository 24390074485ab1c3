// Package profiler models Adyna's hardware profiler (Figure 7): per-operator
// frequency track tables of observed dyn_dim values plus per-switch branch
// co-activation statistics. The profiler runs inside each tile's controller;
// here it is a single object the simulator feeds after every batch, which
// periodically reports to the scheduler for frequency-weighted allocation,
// tile-sharing pairing and multi-kernel re-sampling. It owns all of that
// state, so the graph it observes stays immutable and any number of
// profilers may observe one graph independently.
package profiler

import (
	"fmt"

	"repro/internal/graph"
)

// Profiler accumulates runtime statistics for one dynamic operator graph.
type Profiler struct {
	g   *graph.Graph
	dyn []graph.OpID // g.DynamicOps(), fixed for the graph's lifetime
	sws []graph.OpID // g.Switches(), the Snapshot order
	// freq[id] is dynamic operator id's frequency track table (Figure 5),
	// indexed by OpID; nil for static operators.
	freq []*FreqTable
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

	snap Snapshot // the buffer Snapshot refills
}

// New returns a profiler attached to g with one empty frequency table per
// dynamic operator, sized for the operator's worst-case unit count.
func New(g *graph.Graph) *Profiler {
	p := &Profiler{
		g:      g,
		dyn:    g.DynamicOps(),
		sws:    g.Switches(),
		freq:   make([]*FreqTable, len(g.Ops)),
		coact:  map[graph.OpID][][]int64{},
		active: map[graph.OpID][]int64{},
		units:  map[graph.OpID][]int64{},
	}
	for _, id := range p.dyn {
		p.freq[id] = NewFreqTable(g.Op(id).MaxUnits)
	}
	branches := 0
	for _, swID := range p.sws {
		n := g.Op(swID).NumBranches
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
		}
		p.coact[swID] = m
		p.active[swID] = make([]int64, n)
		p.units[swID] = make([]int64, n)
		branches += n
	}
	p.snap.Share = make([]float64, branches)
	p.snap.Active = make([]float64, branches)
	p.hasDensity = len(g.DensityOps()) > 0
	return p
}

// Freq returns dynamic operator id's frequency track table. It is nil for a
// static operator and for a nil profiler, which stands for no profile at
// all.
func (p *Profiler) Freq(id graph.OpID) *FreqTable {
	if p == nil {
		return nil
	}
	return p.freq[id]
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
		p.freq[id].Observe(u)
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

// Snapshot is the profiler's branch-level view of its window: what the
// drift detector compares against its plan-time reference and what the
// plan-cache keyer quantizes.
type Snapshot struct {
	// Share and Active hold one entry per branch of every switch, switches
	// in g.Switches() order and branches in index order. Share is the
	// fraction of the switch's routed units that went to the branch (0 with
	// no observed volume: absent volume is itself the signal; for top-k MoE
	// the shares are normalized over the routed copies, so they still sum to
	// 1). Active is BranchActiveFraction.
	Share, Active []float64
	// Density is OpDensityMean.
	Density float64
}

// Snapshot fills the profiler's snapshot buffer from the current window and
// returns it. The buffer is reused: it is valid until the next call, and a
// caller that keeps a snapshot copies it.
func (p *Profiler) Snapshot() *Snapshot {
	s := &p.snap
	i := 0
	for _, sw := range p.sws {
		ub := p.units[sw]
		var total int64
		for _, n := range ub {
			total += n
		}
		for b, n := range ub {
			s.Share[i] = 0
			if total > 0 {
				s.Share[i] = float64(n) / float64(total)
			}
			s.Active[i] = p.BranchActiveFraction(sw, b)
			i++
		}
	}
	s.Density = p.OpDensityMean()
	return s
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
		p.freq[id].Decay()
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
