package fleet

import (
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim/simtest"
	"repro/internal/telemetry"
)

// TestFleetMatchesGolden pins a small fleet run — four moe replicas behind
// affinity routing on one shared plan cache, replica r2 browned out mid-run —
// to recorded artifacts: per-replica outcome logs, the counters snapshot,
// the trace digest and the printed report. The report's fleet-wide totals are
// rollups of the replicas' session reports, so a diff in the report alone
// means the rollup no longer sums what the sessions recorded.
func TestFleetMatchesGolden(t *testing.T) {
	mix := headlineMix()
	mix.Requests = 96
	mix.MeanGapCycles = 250_000
	cfg := headlineConfig(PolicyAffinity)
	cfg.ReplicaFaults = &faults.Schedule{Events: []faults.Event{
		{At: 8_000_000, Kind: faults.TileBrownout, Tiles: []int{1}, Until: 16_000_000},
	}}
	tr := telemetry.NewTrace()
	cfg.Base.RC.Trace = tr
	src, err := NewMixSource(mix)
	if err != nil {
		t.Fatalf("NewMixSource: %v", err)
	}
	f := mustFleet(t, cfg)
	rep, err := f.Serve(src)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	checkConservation(t, rep, mix.Requests)
	if rep.ReplicaFailures != 1 || rep.Reroutes == 0 {
		t.Fatalf("brownout not exercised: %d failures, %d reroutes", rep.ReplicaFailures, rep.Reroutes)
	}
	simtest.Golden(t, filepath.Join("testdata", "golden"), "affinity-brownout", simtest.Artifacts{
		Outcomes: fleetLog(rep),
		Snapshot: simtest.Render(t, f.Snapshot()),
		Trace:    simtest.TraceBytes(t, tr),
		Report:   []byte(rep.String()),
	})
}
