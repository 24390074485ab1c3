package mtserve

import (
	"testing"

	"repro/internal/core"
)

// FuzzTenantSpec feeds arbitrary strings to the tenant-spec parser: it must
// never panic, and every spec it accepts must yield a config Validate
// accepts. The checked-in corpus holds further out-of-domain values (NaN,
// infinite and negative parameters) that every plain go test replays.
func FuzzTenantSpec(f *testing.F) {
	for _, seed := range []string{
		"moe",
		"moe:slo=5M:gap=30k,skipnet:slo=8M:gap=60k:prio=1",
		"fbsnet:gap=50k:req=250:walk=0.05:bias=1.6,dpsnet:gap=50k:req=200",
		"moe:wait=1e5:revert=0.2:weight=2:name=a:seed=-3",
		"moe:slo=-5M",
		"moe:gap=NaN",
		"moe:weight=Inf",
		"moe:req=-1",
		",,",
		"moe:x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseSpec(spec, Tenant{})
		if err != nil {
			return
		}
		cfg := Config{Tenants: ts, RC: core.DefaultRunConfig()}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted spec %q yields a config Validate rejects: %v", spec, err)
		}
	})
}
