package sched

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kernels"
)

// uncachedKernel is the kernel the dispatcher selects for v, with
// full-kernel options compiled straight through kernels.Generate.
func uncachedKernel(cfg hw.Config, op *graph.Op, opt *AllocOption, v int) (*kernels.Kernel, error) {
	if opt.set != nil {
		return opt.set.Select(v)
	}
	if v < 1 {
		v = 1
	}
	return kernels.Generate(cfg, op, v, opt.Tiles)
}

// referenceEvaluateEntity is EvaluateEntityDensity written out: the lead's
// costmodel.EvaluateDensity at the selected kernel (uncachedKernel), plus each
// fused vector operator's at the trivial unit blocking.
func referenceEvaluateEntity(cfg hw.Config, g *graph.Graph, pol Policy, op *OpPlan, opt *AllocOption, v int, density float64) (costmodel.Eval, error) {
	vecBlk := costmodel.Blocking{SplitN: 1, SplitM: 1, NBlk: 1, WeightResident: true}
	lead := g.Op(op.Lead)
	var total costmodel.Eval
	if lead.Kind.IsCompute() && lead.Space[0] > 0 {
		k, err := uncachedKernel(cfg, lead, opt, v)
		if err != nil {
			return costmodel.Eval{}, err
		}
		ev, err := costmodel.EvaluateDensity(cfg, lead, k.Blocking, k.CompiledUnits, v, opt.Tiles, pol.RuntimeFitting, density)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	} else if lead.Kind.IsCompute() {
		ev, err := costmodel.EvaluateDensity(cfg, lead, vecBlk, lead.MaxUnits, v, opt.Tiles, pol.RuntimeFitting, density)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	}
	for _, fid := range op.Fused {
		fop := g.Op(fid)
		ev, err := costmodel.EvaluateDensity(cfg, fop, vecBlk, fop.MaxUnits, v, opt.Tiles, pol.RuntimeFitting, density)
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

// TestEvaluateEntityCachedMatchesUncached checks EvaluateEntityDensity against
// referenceEvaluateEntity: every entity, option and a range of dyn values of
// a scheduled skipnet (no density-aware operators) and gcn (density-aware
// aggregations), under several policies, at densities across the
// quantization buckets. Under runtime fitting, the density axis must change
// some gcn cost; without it, no cost.
func TestEvaluateEntityCachedMatchesUncached(t *testing.T) {
	cfg := hw.Default()
	policies := map[string]Policy{"adyna": Adyna(), "mtile": MTile(), "full-kernel": FullKernelIdeal()}
	densities := []float64{1, 0.75, 0.5, 0.3, 0.02, 0}
	for _, model := range []string{"skipnet", "gcn"} {
		for polName, pol := range policies {
			plan, w, _ := scheduleModel(t, model, pol, 16)
			g := w.Graph
			sparse := false
			for _, seg := range plan.Segments {
				for _, op := range seg.Entities {
					leadOp := g.Op(op.Lead)
					for _, opt := range op.Options {
						for _, v := range []int{0, 1, leadOp.MaxUnits / 3, leadOp.MaxUnits / 2, leadOp.MaxUnits} {
							dense, _ := plan.EvaluateEntityDensity(cfg, g, op, opt, v, 1)
							for _, d := range densities {
								got, gerr := plan.EvaluateEntityDensity(cfg, g, op, opt, v, d)
								want, werr := referenceEvaluateEntity(cfg, g, pol, op, opt, v, d)
								if (gerr == nil) != (werr == nil) {
									t.Fatalf("%s %s entity %s v=%d density=%v: errors diverged: %v vs %v",
										model, polName, leadOp.Name, v, d, gerr, werr)
								}
								if gerr == nil && got != want {
									t.Fatalf("%s %s entity %s v=%d density=%v:\ngot       %+v\nreference %+v",
										model, polName, leadOp.Name, v, d, got, want)
								}
								sparse = sparse || (gerr == nil && got != dense)
							}
						}
					}
				}
			}
			if want := model == "gcn" && pol.RuntimeFitting; sparse != want {
				t.Fatalf("%s %s: some cost moved with density = %v, want %v", model, polName, sparse, want)
			}
		}
	}
}

// TestFullKernelChosenAtLiveHBMRate pins the full-kernel rule: a full-kernel
// option's kernel for v is the plan's compiler's kernel for v on the config
// it runs on, picked at that config's HBM rate, whichever config asked
// first. Two derates alternate over one plan; at each, EvaluateEntityDensity
// must cost the entity at the kernel Compiler.compile returns on that
// config, and some kernel must differ between the two rates, or the check
// compares nothing.
func TestFullKernelChosenAtLiveHBMRate(t *testing.T) {
	plan, w, _ := scheduleModel(t, "tutel-moe", FullKernelIdeal(), 16)
	g := w.Graph
	healthy, slow := hw.Default(), hw.Default()
	slow.HBMDerate = 0.05
	flips := 0
	for _, seg := range plan.Segments {
		for _, op := range seg.Entities {
			lead := g.Op(op.Lead)
			if lead.Space[0] == 0 {
				continue
			}
			for _, opt := range op.Options {
				for _, v := range []int{1, lead.MaxUnits / 2, lead.MaxUnits} {
					var picked [2]*kernels.Kernel
					for i, cfg := range []hw.Config{slow, healthy, slow, healthy} {
						got, err := plan.EvaluateEntityDensity(cfg, g, op, opt, v, 1)
						if err != nil {
							t.Fatal(err)
						}
						want, err := referenceEvaluateEntity(cfg, g, plan.Policy, op, opt, v, 1)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s v=%d tiles=%d derate %v: costs %+v, want %+v", lead.Name, v, opt.Tiles, cfg.HBMDerate, got, want)
						}
						k, err := plan.comp.compile(cfg, lead, max(v, 1), opt.Tiles)
						if err != nil {
							t.Fatal(err)
						}
						if sel, _ := opt.kernel(plan, cfg, lead, v); sel != k {
							t.Fatalf("%s v=%d tiles=%d derate %v: selected a kernel other than the compiler's", lead.Name, v, opt.Tiles, cfg.HBMDerate)
						}
						if prev := picked[i%2]; prev != nil && prev != k {
							t.Fatalf("%s v=%d tiles=%d derate %v: the compiler's kernel changed between visits", lead.Name, v, opt.Tiles, cfg.HBMDerate)
						}
						picked[i%2] = k
					}
					if picked[0].Blocking != picked[1].Blocking {
						flips++
					}
				}
			}
		}
	}
	if flips == 0 {
		t.Fatal("no full kernel differs between the two HBM rates; the check compares nothing")
	}
}
