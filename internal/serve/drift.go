package serve

import (
	"math"

	"repro/internal/graph"
	"repro/internal/profiler"
)

// detector watches the on-chip profiler for distribution drift relative to
// the profile the current plan was scheduled from. It keeps the profiler
// snapshot taken at plan time — per-branch unit shares (the volume statistic
// frequency-weighted allocation is built from), batch-active fractions (what
// tile sharing and branch grouping key on) and the density mean — and
// reports how far the live snapshot has moved from it.
type detector struct {
	prof *profiler.Profiler
	// base is the snapshot taken by the last Rebase.
	base profiler.Snapshot
	// hasDensity gates the density drift part: graphs with density-aware
	// operators additionally compare the windowed density mean, so a
	// density-only shift (routing unchanged, batches sparser or denser)
	// triggers a re-plan like any routing drift.
	hasDensity bool
}

func newDetector(g *graph.Graph, prof *profiler.Profiler) *detector {
	d := &detector{prof: prof, hasDensity: len(g.DensityOps()) > 0}
	d.Rebase()
	return d
}

// Rebase snapshots the current profile as the new reference — called right
// after a plan computed from that profile is installed.
func (d *detector) Rebase() {
	live := d.prof.Snapshot()
	d.base.Share = append(d.base.Share[:0], live.Share...)
	d.base.Active = append(d.base.Active[:0], live.Active...)
	d.base.Density = live.Density
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
	live := d.prof.Snapshot()
	for i := range live.Share {
		share += math.Abs(live.Share[i] - d.base.Share[i])
		active += math.Abs(live.Active[i] - d.base.Active[i])
	}
	if d.hasDensity {
		density = math.Abs(live.Density - d.base.Density)
	}
	n := len(live.Share)
	if n == 0 {
		return 0, 0, density
	}
	return share / float64(n), active / float64(n), density
}
