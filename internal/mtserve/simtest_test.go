package mtserve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim/simtest"
	"repro/internal/telemetry"
)

// mtArtifacts runs one multi-tenant scenario and captures the full
// determinism surface through the shared simtest differ: the report rendered
// through render (per-tenant outcome logs included), its printed table and
// the validated trace.
func mtArtifacts(t *testing.T, cfg Config, trace bool, render func(*Report) any) simtest.Artifacts {
	t.Helper()
	var tr *telemetry.Trace
	if trace {
		tr = telemetry.NewTrace()
		cfg.RC.Trace = tr
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", cfg.Mode, err)
	}
	rep, err := s.Serve()
	if err != nil {
		t.Fatalf("Serve(%s): %v", cfg.Mode, err)
	}
	return simtest.Artifacts{
		Outcomes: simtest.Render(t, render(rep)),
		Trace:    simtest.TraceBytes(t, tr),
		Report:   []byte(rep.String()),
	}
}

// asIs renders a report unchanged.
func asIs(r *Report) any { return r }

// TestMTServeHeadlineByteStable pins a scaled copy of the three-tenant
// re-partitioning headline with the simtest differ across GOMAXPROCS: the
// cross-tenant repartition decisions, per-tenant machines and the shared
// trace must reproduce byte for byte.
func TestMTServeHeadlineByteStable(t *testing.T) {
	cfg := func() Config {
		c := headlineConfig(ModeRepartition)
		for i := range c.Tenants {
			c.Tenants[i].Requests /= 8
		}
		return c
	}
	ref := mtArtifacts(t, cfg(), true, asIs)
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		got := mtArtifacts(t, cfg(), true, asIs)
		runtime.GOMAXPROCS(old)
		simtest.Diff(t, fmt.Sprintf("mtserve headline GOMAXPROCS=%d", procs), ref, got)
	}
}
