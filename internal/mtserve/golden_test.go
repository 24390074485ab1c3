package mtserve

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
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
			got := mtArtifacts(t, smokeConfig(t, mode), true)
			simtest.Golden(t, filepath.Join("testdata", "golden"), "smoke-"+mode.String(), got)
		})
	}
}
