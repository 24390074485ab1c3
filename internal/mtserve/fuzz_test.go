package mtserve

import (
	"math"
	"testing"
)

// FuzzTenantSpec feeds arbitrary strings to the tenant-spec parser: it must
// never panic, and every spec it accepts must carry only finite numeric
// fields inside their domains (cycle counts, request counts and rate
// parameters all non-negative).
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
		finite := func(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
		for _, tn := range ts {
			if tn.SLOCycles < 0 || tn.MaxWaitCycles < 0 || tn.Requests < 0 ||
				!finite(tn.MeanGapCycles) || !finite(tn.RateWalkSD) || !finite(tn.RateBias) ||
				!finite(tn.RateRevert) || !finite(tn.Weight) {
				t.Fatalf("spec %q accepted an out-of-domain tenant: %+v", spec, tn)
			}
		}
	})
}
