package plancache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/profiler"
	"repro/internal/sched"
)

// TestCompileMemoTransparent pins the bring-up compile memo as invisible:
// for moe and gcn under the Adyna, static and full-kernel policies, every
// plan AOT bring-up solves — the live point and each degraded config of a
// fault schedule that steps through bandwidth windows, a four-tile loss and
// a run of single-tile losses — encodes byte-identically and costs
// identically whether it is solved through one compiler warmed by all the
// solves before it or through a fresh compiler. The chip is shrunk to 4x4
// tiles so every loss reshapes a small mesh.
func TestCompileMemoTransparent(t *testing.T) {
	cfg := hw.Default()
	cfg.TilesX, cfg.TilesY = 4, 4
	spec := "hbm@1e6:factor=0.5,until=2e6;noc@3e6:factor=0.6;fail@4e6:tiles=0-3"
	for i, tile := range []int{5, 10, 15, 6, 9, 12, 7, 13} {
		spec += fmt.Sprintf(";fail@%d:tiles=%d", 5_000_000+i*1_000_000, tile)
	}
	fs, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	policies := map[string]sched.Policy{
		"adyna":       sched.Adyna(),
		"static":      sched.AdynaStatic(),
		"full-kernel": sched.FullKernelIdeal(),
	}
	for _, model := range []string{"moe", "gcn"} {
		w, prof := warmWorkload(t, model, 12)
		g := w.Graph
		dcfgs := degradedConfigs(cfg, fs)
		for name, pol := range policies {
			warm := sched.NewCompiler(g)
			solves := 0
			check := func(what string, cfg hw.Config, prof *profiler.Profiler) {
				t.Helper()
				got, gerr := warm.Schedule(cfg, pol, prof)
				want, werr := sched.Schedule(cfg, g, pol, prof)
				if errText(gerr) != errText(werr) {
					t.Fatalf("%s/%s %s: warm error %v, fresh error %v", model, name, what, gerr, werr)
				}
				if werr != nil {
					return
				}
				solves++
				if !bytes.Equal(encodePlan(t, got), encodePlan(t, want)) {
					t.Fatalf("%s/%s %s: warm-compiler plan encodes differently from a fresh solve", model, name, what)
				}
				sameCosts(t, cfg, g, got, want)
			}
			check("live", cfg, prof)
			for _, dcfg := range dcfgs {
				check("degraded config", dcfg, prof)
			}
			if solves < 10 {
				t.Fatalf("%s/%s: only %d plans compared", model, name, solves)
			}
		}
	}
}

// sameCosts compares every entity's cost on every option at a spread of dyn
// values — the comparison that reaches full-kernel plans, whose kernels are
// compiled on demand and never encoded.
func sameCosts(t *testing.T, cfg hw.Config, g *graph.Graph, a, b *sched.Plan) {
	t.Helper()
	for si, seg := range a.Segments {
		for lead, op := range seg.Plans {
			bop := b.Segments[si].Plans[lead]
			max := g.Op(lead).MaxUnits
			for k := range op.Options {
				for _, v := range []int{1, max / 3, max} {
					ea, errA := a.EvaluateEntityDensity(cfg, g, op, op.Options[k], v, 1)
					eb, errB := b.EvaluateEntityDensity(cfg, g, bop, bop.Options[k], v, 1)
					if ea != eb || errText(errA) != errText(errB) {
						t.Fatalf("entity %s option %d v=%d: warm %+v (%v), fresh %+v (%v)",
							g.Op(lead).Name, k, v, ea, errA, eb, errB)
					}
				}
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
