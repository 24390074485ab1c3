package sched

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kernels"
)

// uncachedKernel is the kernel the dispatcher selects for v, with dense
// options compiled straight through kernels.Generate.
func uncachedKernel(cfg hw.Config, op *graph.Op, opt *AllocOption, v int) (*kernels.Kernel, error) {
	if opt.set != nil {
		return opt.set.Select(v)
	}
	if v < 1 {
		v = 1
	}
	return kernels.Generate(cfg, op, v, opt.Tiles)
}

// uncachedEvaluateEntity replicates EvaluateEntityDensity at density 1
// without any memo (uncachedKernel + package-level costmodel.Evaluate). It is
// the reference the memoized hot path is checked against.
func uncachedEvaluateEntity(cfg hw.Config, g *graph.Graph, pol Policy, op *OpPlan, opt *AllocOption, v int) (costmodel.Eval, error) {
	vecBlk := costmodel.Blocking{SplitN: 1, SplitM: 1, NBlk: 1, WeightResident: true}
	lead := g.Op(op.Lead)
	var total costmodel.Eval
	if lead.Kind.IsCompute() && lead.Space[0] > 0 {
		k, err := uncachedKernel(cfg, lead, opt, v)
		if err != nil {
			return costmodel.Eval{}, err
		}
		ev, err := costmodel.Evaluate(cfg, lead, k.Blocking, k.CompiledUnits, v, opt.Tiles, pol.RuntimeFitting)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	} else if lead.Kind.IsCompute() {
		ev, err := costmodel.Evaluate(cfg, lead, vecBlk, lead.MaxUnits, v, opt.Tiles, pol.RuntimeFitting)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	}
	for _, fid := range op.Fused {
		fop := g.Op(fid)
		ev, err := costmodel.Evaluate(cfg, fop, vecBlk, fop.MaxUnits, v, opt.Tiles, pol.RuntimeFitting)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total.Cycles += ev.Cycles
		total.MACs += ev.MACs
		total.SRAMBytes += ev.SRAMBytes
		total.OutBytes = ev.OutBytes
	}
	return total, nil
}

// TestEvaluateEntityCachedMatchesUncached sweeps every entity, option, and a
// range of dyn values of a scheduled model under several policies and checks
// the memoized EvaluateEntityDensity at density 1 against the uncached
// reference — on the first (miss) call and on the repeat (hit) call.
func TestEvaluateEntityCachedMatchesUncached(t *testing.T) {
	cfg := hw.Default()
	policies := map[string]Policy{"adyna": Adyna(), "mtile": MTile(), "full-kernel": FullKernelIdeal()}
	for polName, pol := range policies {
		plan, w, _ := scheduleModel(t, "skipnet", pol, 16)
		g := w.Graph
		for _, seg := range plan.Segments {
			for lead, op := range seg.Plans {
				leadOp := g.Op(lead)
				for k := range op.Options {
					opt := op.Options[k]
					for _, v := range []int{0, 1, leadOp.MaxUnits / 3, leadOp.MaxUnits / 2, leadOp.MaxUnits} {
						for trial := 0; trial < 2; trial++ { // miss, then hit
							got, gerr := plan.EvaluateEntityDensity(cfg, g, op, opt, v, 1)
							want, werr := uncachedEvaluateEntity(cfg, g, pol, op, opt, v)
							if (gerr == nil) != (werr == nil) {
								t.Fatalf("%s entity %s v=%d trial %d: errors diverged: %v vs %v",
									polName, leadOp.Name, v, trial, gerr, werr)
							}
							if gerr == nil && got != want {
								t.Fatalf("%s entity %s v=%d trial %d:\ncached   %+v\nuncached %+v",
									polName, leadOp.Name, v, trial, got, want)
							}
						}
					}
				}
			}
		}
		hits, misses := plan.CacheStats()
		if hits == 0 || misses == 0 {
			t.Fatalf("%s: cache did not engage: hits=%d misses=%d", polName, hits, misses)
		}
	}
}
