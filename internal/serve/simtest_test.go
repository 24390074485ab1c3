package serve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim/simtest"
)

// The headline serving scenarios pinned with the simtest differ: identical
// configurations must reproduce byte-identical outcome reports, counter
// snapshots and telemetry traces at any GOMAXPROCS. These complement the
// older string-compare determinism tests with full-surface coverage (the
// snapshot and trace catch divergences the outcome log alone cannot, e.g.
// cost-model memo counters).

// TestServeHeadlineByteStable re-runs a scaled copy of the drift headline
// (drift-triggered re-scheduling on a drifting moe mix) across host
// parallelism levels and diffs every artifact.
func TestServeHeadlineByteStable(t *testing.T) {
	cfg := func() Config {
		c := demoConfig(true)
		c.PlanCache = true
		return c
	}
	src := func() Source { return NewSynthetic(600, 26_000, 2, nil) }
	ref := serveArtifacts(t, cfg(), src(), true)
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		got := serveArtifacts(t, cfg(), src(), true)
		runtime.GOMAXPROCS(old)
		simtest.Diff(t, fmt.Sprintf("headline GOMAXPROCS=%d", procs), ref, got)
	}
}

// TestServeFaultHeadlineByteStable does the same for the fault headline: a
// quarter-chip tile loss mid-stream with fault-aware re-scheduling. The
// capability timeline, emergency re-plans and degraded-machine execution all
// sit inside the diffed surface.
func TestServeFaultHeadlineByteStable(t *testing.T) {
	src := func() Source { return NewSynthetic(200, 80_000, 2, nil) }
	ref := serveArtifacts(t, faultHeadlineConfig(), src(), true)
	old := runtime.GOMAXPROCS(8)
	got := serveArtifacts(t, faultHeadlineConfig(), src(), true)
	runtime.GOMAXPROCS(old)
	simtest.Diff(t, "fault headline GOMAXPROCS=8", ref, got)
}

// faultHeadlineConfig is the fault headline scenario: 36 of the chip's 144
// tiles fail at cycle 3M, with fault-aware re-scheduling on.
func faultHeadlineConfig() Config {
	fs := &faults.Schedule{Events: []faults.Event{
		{At: 3_000_000, Kind: faults.TileFail, Tiles: tileRange(0, 36)},
	}}
	return faultConfig("skipnet", true, fs)
}
