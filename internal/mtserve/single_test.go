package mtserve

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestSingleTenantMatchesServer is a metamorphic relation: one tenant
// owning the whole chip under static partitioning is a single server. A
// serve.Server configured with mtserve's defaults (queue-wait deadline
// SLO/4, queue capacity 8x MaxBatch) and fed the tenant's arrival stream
// (seed RC.Seed+7919) must produce the identical outcome log and final
// clock.
func TestSingleTenantMatchesServer(t *testing.T) {
	for _, model := range []string{"moe", "skipnet", "gcn"} {
		t.Run(model, func(t *testing.T) {
			rc := core.DefaultRunConfig()
			rc.Batch = 16
			rc.Warmup = 8
			rc.Seed = 3
			ten := Tenant{Model: model, SLOCycles: 4_000_000, MeanGapCycles: 40_000, Requests: 300}
			mt := mustServe(t, Config{Tenants: []Tenant{ten}, RC: rc, Mode: ModeStatic, MaxBatch: 16})

			srv, err := serve.New(serve.Config{
				Model:           model,
				RC:              rc,
				MaxBatch:        16,
				MaxWaitCycles:   ten.SLOCycles / 4,
				SLOCycles:       ten.SLOCycles,
				QueueCapSamples: 8 * 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			one, err := srv.Serve(serve.NewSynthetic(ten.Requests, ten.MeanGapCycles, rc.Seed+7919, nil))
			if err != nil {
				t.Fatal(err)
			}

			got := mt.Tenants[0]
			if len(got.Outcomes) != ten.Requests {
				t.Fatalf("tenant logged %d outcomes for %d requests", len(got.Outcomes), ten.Requests)
			}
			if !reflect.DeepEqual(got.Outcomes, one.Outcomes) {
				t.Fatalf("outcome logs differ: tenant %d entries, server %d", len(got.Outcomes), len(one.Outcomes))
			}
			if got.FinalCycles != one.FinalCycles {
				t.Fatalf("final clock: tenant %d, server %d", got.FinalCycles, one.FinalCycles)
			}
		})
	}
}
