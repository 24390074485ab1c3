package mtserve

import (
	"testing"

	"repro/internal/core"
)

// TestSameModelTenantsShareCompiler checks that tenants of one model bring
// up on one graph and kernel compiler: two moe tenants time-slicing the chip
// run one moe tenant's worth of blocking searches. Without warmup both solve
// from the same empty profile on the same config, so the second tenant's
// bring-up finds every kernel compiled.
func TestSameModelTenantsShareCompiler(t *testing.T) {
	searches := func(n int) int64 {
		rc := core.DefaultRunConfig()
		rc.Batch, rc.Warmup = 16, 0
		cfg := Config{RC: rc, Mode: ModeTimeSlice}
		for i := 0; i < n; i++ {
			cfg.Tenants = append(cfg.Tenants, Tenant{Model: "moe", MeanGapCycles: 40_000, Requests: 8})
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := s.tens[0].srv.Setup()
		for _, ts := range s.tens[1:] {
			if st := ts.srv.Setup(); st.Comp != first.Comp || st.W.Graph != first.W.Graph {
				t.Fatalf("tenant %s brought up on its own compiler or graph", ts.ten.Name)
			}
		}
		_, searched := first.Comp.Stats()
		return searched
	}
	one, two := searches(1), searches(2)
	if one == 0 || two != one {
		t.Fatalf("two moe tenants ran %d blocking searches, one tenant %d", two, one)
	}
}
