package mtserve

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim/simtest"
)

// smokeSpec is the tenant mix of the CI multi-tenant trace smoke.
const smokeSpec = "fbsnet:gap=50k:req=250:walk=0.05:bias=1.6,dpsnet:gap=50k:req=200"

// smokeConfig mirrors `serve -warmup 8 -maxbatch 16 -tenants <smokeSpec>
// -compare` for one sharing mode, down to the CLI's flag defaults.
func smokeConfig(t *testing.T, mode Mode) Config {
	t.Helper()
	tens, err := ParseSpec(smokeSpec, Tenant{SLOCycles: 4_000_000, MeanGapCycles: 26_000, Requests: 6000})
	if err != nil {
		t.Fatal(err)
	}
	rc := core.DefaultRunConfig()
	rc.Batch = 16
	rc.Warmup = 8
	rc.Seed = 1
	rc.TraceName = "mt/" + mode.String()
	return Config{
		Tenants:          tens,
		RC:               rc,
		Mode:             mode,
		MaxBatch:         16,
		PlanCacheNearest: true,
		PlanCacheAOT:     true,
	}
}

// TestSharingModesMatchGolden pins every sharing mode's report (per-tenant
// outcome logs included) and trace digest to artifacts recorded before
// mtserve formed and retired its batches through serve's batcher: the shared
// batching policy must reproduce mtserve's own byte for byte.
func TestSharingModesMatchGolden(t *testing.T) {
	for _, mode := range []Mode{ModeStatic, ModeTimeSlice, ModeRepartition} {
		t.Run(mode.String(), func(t *testing.T) {
			got := mtArtifacts(t, smokeConfig(t, mode), true, goldenLayout)
			simtest.Golden(t, filepath.Join("testdata", "golden"), "smoke-"+mode.String(), got)
		})
	}
}

// goldenTenant and goldenReport are the JSON layout the outcome goldens were
// recorded in, before tenant and aggregate reports became rollups of the
// sessions' reports. goldenLayout only renames and reorders: every value the
// goldens pin is read from the report as it is now.
type goldenTenant struct {
	Name                                              string
	Model                                             string
	Priority, Tiles                                   int
	Requests, Served, Missed, Shed                    int
	Batches, Reschedules, FaultEvents                 int
	PlanCacheExact, PlanCacheNearest, PlanCacheMisses int
	ReconfigCycles, HostSolveCycles, FinalCycles      int64
	Latency                                           metrics.Summary
	Outcomes                                          []serve.RequestResult
}

type goldenReport struct {
	Mode                                    Mode
	Design                                  core.Design
	Tenants                                 []goldenTenant
	Requests, Served, Missed, Shed, Batches int
	Repartitions, Reschedules, FaultEvents  int
	PlanCacheHits, PlanCacheMisses          int
	ReconfigCycles, HostSolveCycles         int64
	Aggregate                               metrics.Summary
	FinalCycles                             int64
}

func goldenLayout(r *Report) any {
	g := goldenReport{
		Mode: r.Mode, Design: r.Design,
		Requests: r.Requests, Served: r.Served, Missed: r.Missed, Shed: r.Shed, Batches: r.Batches,
		Repartitions: r.Repartitions, Reschedules: r.Reschedules + r.HealthReschedules, FaultEvents: r.FaultEvents,
		PlanCacheHits: r.PlanCacheExact + r.PlanCacheNearest, PlanCacheMisses: r.PlanCacheMisses,
		ReconfigCycles: r.ReconfigCycles, HostSolveCycles: r.HostSolveCycles,
		Aggregate: r.Latency, FinalCycles: r.FinalCycles,
	}
	for _, tr := range r.Tenants {
		g.Tenants = append(g.Tenants, goldenTenant{
			Name: tr.Name, Model: tr.Model, Priority: tr.Priority, Tiles: tr.Tiles,
			Requests: tr.Requests, Served: tr.Served, Missed: tr.Missed, Shed: tr.Shed,
			Batches: tr.Batches, Reschedules: tr.Reschedules + tr.HealthReschedules, FaultEvents: tr.FaultEvents,
			PlanCacheExact: tr.PlanCacheExact, PlanCacheNearest: tr.PlanCacheNearest, PlanCacheMisses: tr.PlanCacheMisses,
			ReconfigCycles: tr.ReconfigCycles, HostSolveCycles: tr.HostSolveCycles, FinalCycles: tr.FinalCycles,
			Latency: tr.Latency, Outcomes: tr.Outcomes,
		})
	}
	return g
}
