package serve

import (
	"math"

	"repro/internal/graph"
	"repro/internal/profiler"
)

// detector watches the on-chip profiler for distribution drift relative to
// the profile the current plan was scheduled from. It snapshots two
// per-branch statistics at plan time — the unit share (the volume statistic
// frequency-weighted allocation is built from) and the batch-active fraction
// (what tile sharing and branch grouping key on) — and reports how far the
// live profile has moved from that snapshot.
type detector struct {
	prof *profiler.Profiler
	sws  []graph.OpID
	nb   []int
	// baseShare / baseActive are the per-switch per-branch snapshots taken by
	// the last Rebase, indexed like sws.
	baseShare  [][]float64
	baseActive [][]float64
	// hasDensity gates the density drift part: graphs with density-aware
	// operators additionally snapshot the windowed density mean, so a
	// density-only shift (routing unchanged, batches sparser or denser)
	// triggers a re-plan like any routing drift.
	hasDensity  bool
	baseDensity float64
}

func newDetector(g *graph.Graph, prof *profiler.Profiler) *detector {
	d := &detector{prof: prof, sws: g.Switches(), hasDensity: len(g.DensityOps()) > 0}
	d.nb = make([]int, len(d.sws))
	d.baseShare = make([][]float64, len(d.sws))
	d.baseActive = make([][]float64, len(d.sws))
	for i, sw := range d.sws {
		d.nb[i] = g.Op(sw).NumBranches
		d.baseShare[i] = make([]float64, d.nb[i])
		d.baseActive[i] = make([]float64, d.nb[i])
	}
	d.Rebase()
	return d
}

// Rebase snapshots the current profile as the new reference — called right
// after a plan computed from that profile is installed.
func (d *detector) Rebase() {
	for i, sw := range d.sws {
		for k := 0; k < d.nb[i]; k++ {
			d.baseShare[i][k] = d.prof.BranchUnitShare(sw, k)
			d.baseActive[i][k] = d.prof.BranchActiveFraction(sw, k)
		}
	}
	if d.hasDensity {
		d.baseDensity = d.prof.OpDensityMean()
	}
}

// Divergence returns the drift of the live profile since the last Rebase:
// the mean absolute per-branch difference, computed separately for unit
// shares, active fractions and (on density-aware graphs) the windowed density
// mean, maxed over the statistics. 0 for static graphs.
func (d *detector) Divergence() float64 {
	_, _, _, div := d.evaluate()
	return div
}

// evaluate computes one drift check: every drift statistic plus their max —
// the single place the statistics are combined, shared by the trigger
// decision, the telemetry drift-eval instant, and Divergence.
func (d *detector) evaluate() (share, active, density, div float64) {
	share, active, density = d.divergenceParts()
	return share, active, density, math.Max(math.Max(share, active), density)
}

// divergenceParts returns the drift statistics separately: the mean absolute
// unit-share difference (volume), the mean absolute active-fraction
// difference (presence), and the absolute density-mean difference (sparsity;
// 0 for graphs without density-aware operators). Divergence maxes over them;
// the telemetry drift-eval events record all three, so a trace shows which
// statistic triggered (or failed to trigger) a re-plan.
func (d *detector) divergenceParts() (share, active, density float64) {
	n := 0
	for i, sw := range d.sws {
		for k := 0; k < d.nb[i]; k++ {
			share += math.Abs(d.prof.BranchUnitShare(sw, k) - d.baseShare[i][k])
			active += math.Abs(d.prof.BranchActiveFraction(sw, k) - d.baseActive[i][k])
			n++
		}
	}
	if d.hasDensity {
		density = math.Abs(d.prof.OpDensityMean() - d.baseDensity)
	}
	if n == 0 {
		return 0, 0, density
	}
	return share / float64(n), active / float64(n), density
}
