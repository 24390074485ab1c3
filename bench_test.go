// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section IX), one benchmark per artifact, plus ablation benches for the
// design choices DESIGN.md calls out. Each benchmark runs the corresponding
// experiment at reduced scale (experiments.Quick) so `go test -bench=.`
// finishes in minutes; the cmd/experiments binary runs the same code at full
// scale. Key ratios are attached to the benchmark output via ReportMetric,
// so `go test -bench=.` doubles as a compact reproduction report.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// quick returns the reduced-scale options shared by all benches.
func quick() experiments.Options { return experiments.Quick() }

// BenchmarkTable4AreaPower regenerates Table IV (area and power breakdown of
// an Adyna tile) and reports the DynNN-support area overhead (paper: ~4.9%).
func BenchmarkTable4AreaPower(b *testing.B) {
	b.ReportAllocs()
	var overhead float64
	for i := 0; i < b.N; i++ {
		tb := power.Tile(hw.Default())
		a, _ := tb.DynNNOverheadShare()
		overhead = a
	}
	b.ReportMetric(overhead*100, "dynnn-area-%")
	b.ReportMetric(power.ChipPowerW(hw.Default()), "chip-W")
}

// BenchmarkFigure6AllocationTrace regenerates the Figure 6 trace study and
// reports the mean per-batch imbalance of the three allocation strategies.
func BenchmarkFigure6AllocationTrace(b *testing.B) {
	b.ReportAllocs()
	var static, freq, share float64
	for i := 0; i < b.N; i++ {
		fig := experiments.Figure6(1, 60)
		static, freq, share = experiments.Figure6Imbalance(fig)
	}
	b.ReportMetric(static, "static-maxload")
	b.ReportMetric(freq, "freq-maxload")
	b.ReportMetric(share, "share-maxload")
}

// BenchmarkFigure9Overall regenerates the overall performance comparison and
// reports the headline speedups (paper: Adyna 1.70x over M-tile, 1.57x over
// M-tenant, 11.7x over GPU).
func BenchmarkFigure9Overall(b *testing.B) {
	b.ReportAllocs()
	var h experiments.Headlines
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(quick())
		if err != nil {
			b.Fatal(err)
		}
		h = experiments.Figure9Headlines(m)
	}
	b.ReportMetric(h.AdynaVsMTile, "x-vs-mtile")
	b.ReportMetric(h.AdynaVsMTenant, "x-vs-mtenant")
	b.ReportMetric(h.AdynaVsGPU, "x-vs-gpu")
	b.ReportMetric(h.StaticVsMTile, "x-static-vs-mtile")
}

// BenchmarkRunMatrix times one small Figure 9 matrix (every design on every
// model) with its allocations: the host cost of the offline runner, where
// each model's trace is generated once and shared by its six designs.
func BenchmarkRunMatrix(b *testing.B) {
	b.ReportAllocs()
	opt := quick()
	opt.RC.Batches = 8
	opt.RC.Warmup = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMatrix(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10Utilization regenerates the PE / memory-bandwidth
// utilization comparison.
func BenchmarkFigure10Utilization(b *testing.B) {
	b.ReportAllocs()
	var peMTile, peAdyna float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(quick())
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Figure10(m)
		var xs, ys []float64
		for _, name := range m.Models {
			xs = append(xs, m.Results[name][core.DesignMTile].PEUtil)
			ys = append(ys, m.Results[name][core.DesignAdyna].PEUtil)
		}
		peMTile, peAdyna = metrics.Geomean(xs), metrics.Geomean(ys)
	}
	b.ReportMetric(peMTile, "pe-util-mtile")
	b.ReportMetric(peAdyna, "pe-util-adyna")
}

// BenchmarkFigure11Energy regenerates the energy breakdown and reports
// Adyna's total energy relative to M-tile (lower is better).
func BenchmarkFigure11Energy(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(quick())
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Figure11(m)
		var rs []float64
		for _, name := range m.Models {
			ad := m.Results[name][core.DesignAdyna]
			mt := m.Results[name][core.DesignMTile]
			eAd := float64(ad.MACs) + float64(ad.HBMBytes)*26
			eMt := float64(mt.MACs) + float64(mt.HBMBytes)*26
			rs = append(rs, eAd/eMt)
		}
		ratio = metrics.Geomean(rs)
	}
	b.ReportMetric(ratio, "adyna/mtile-energy")
}

// BenchmarkFigure12RealtimeSweep regenerates the real-time-scheduling sweep
// on one representative latency point (the full sweep runs via
// cmd/experiments -exp fig12) and reports the slowdown at the paper's
// crossover latency of 0.39 ms.
func BenchmarkFigure12RealtimeSweep(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		opt := quick()
		rcA := opt.RC
		ad, err := core.Run(core.DesignAdyna, "skipnet", rcA)
		if err != nil {
			b.Fatal(err)
		}
		rcR := opt.RC
		rcR.OnlineSchedCycles = 390_000 // 0.39 ms at 1 GHz
		rt, err := core.Run(core.DesignRealtime, "skipnet", rcR)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rt.CyclesPerBatch() / ad.CyclesPerBatch()
	}
	b.ReportMetric(ratio, "realtime/adyna-at-390us")
}

// BenchmarkFigure13BatchSweep regenerates the batch-size sweep (paper:
// speedups grow 1.29x -> 1.70x from batch 1 to 128) at reduced scale and
// reports the small-batch and large-batch speedups.
func BenchmarkFigure13BatchSweep(b *testing.B) {
	b.ReportAllocs()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		opt := quick()
		fig, err := experiments.Figure13(opt, []int{4, 64})
		if err != nil {
			b.Fatal(err)
		}
		gm := fig.Series[len(fig.Series)-1] // geomean series
		lo, hi = gm.Y[0], gm.Y[1]
	}
	b.ReportMetric(lo, "speedup-batch4")
	b.ReportMetric(hi, "speedup-batch64")
}

// BenchmarkReconfigOverhead is the Section V-C ablation: reconfiguration
// overhead at the paper's 40-batch period must stay small (paper: <2.4%).
func BenchmarkReconfigOverhead(b *testing.B) {
	b.ReportAllocs()
	var overhead float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunWithPolicy(core.DesignAdyna, "skipnet", quick().RC, func(p *sched.Policy) { p.ResamplePeriod = 8 })
		if err != nil {
			b.Fatal(err)
		}
		overhead = float64(r.ReconfigCycles) / float64(r.Cycles)
	}
	b.ReportMetric(overhead*100, "reconfig-%")
}

// BenchmarkAblationTileSharing compares Adyna with and without tile sharing
// (Section V-B).
func BenchmarkAblationTileSharing(b *testing.B) {
	benchPolicyAblation(b, "skipnet", "sharing-gain-x", func(p *sched.Policy) { p.TileSharing = false })
}

// BenchmarkAblationBranchGrouping compares Adyna with and without branch
// grouping on the skew-heavy FBSNet (Section V-B).
func BenchmarkAblationBranchGrouping(b *testing.B) {
	benchPolicyAblation(b, "fbsnet", "grouping-gain-x", func(p *sched.Policy) { p.BranchGrouping = false })
}

// BenchmarkAblationRuntimeFitting compares Adyna with and without runtime
// kernel-fitting (Section VI-B).
func BenchmarkAblationRuntimeFitting(b *testing.B) {
	benchPolicyAblation(b, "dpsnet", "fitting-gain-x", func(p *sched.Policy) { p.RuntimeFitting = false })
}

// BenchmarkAblationKernelBudget sweeps the per-operator kernel budget
// (Section VII): 1 kernel vs the full 33-kernel budget.
func BenchmarkAblationKernelBudget(b *testing.B) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		rc := quick().RC
		one, err := core.RunWithPolicy(core.DesignAdyna, "dpsnet", rc, func(p *sched.Policy) { p.KernelBudget = 1 })
		if err != nil {
			b.Fatal(err)
		}
		full, err := core.RunWithPolicy(core.DesignAdyna, "dpsnet", rc, func(p *sched.Policy) { p.KernelBudget = 33 })
		if err != nil {
			b.Fatal(err)
		}
		gain = full.SpeedupOver(one)
	}
	b.ReportMetric(gain, "budget33-vs-1-x")
}

// BenchmarkAblationResamplePeriod sweeps the reconfiguration period
// (Section V-C): frequent vs infrequent re-scheduling on the drifting MoE.
func BenchmarkAblationResamplePeriod(b *testing.B) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		rc := quick().RC
		rc.Batches = 48
		fast, err := core.RunWithPolicy(core.DesignAdyna, "tutel-moe", rc, func(p *sched.Policy) { p.ResamplePeriod = 8 })
		if err != nil {
			b.Fatal(err)
		}
		slow, err := core.RunWithPolicy(core.DesignAdyna, "tutel-moe", rc, func(p *sched.Policy) { p.ResamplePeriod = 48 })
		if err != nil {
			b.Fatal(err)
		}
		gain = fast.SpeedupOver(slow)
	}
	b.ReportMetric(gain, "period8-vs-48-x")
}

func benchPolicyAblation(b *testing.B, model, metric string, disable func(*sched.Policy)) {
	b.Helper()
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		rc := quick().RC
		on, err := core.Run(core.DesignAdyna, model, rc)
		if err != nil {
			b.Fatal(err)
		}
		off, err := core.RunWithPolicy(core.DesignAdyna, model, rc, disable)
		if err != nil {
			b.Fatal(err)
		}
		gain = on.SpeedupOver(off)
	}
	b.ReportMetric(gain, metric)
}

// replanInputs builds the scheduler inputs of a representative online
// re-plan: the drifting MoE with a warmed profile on the default chip.
func replanInputs(b *testing.B) (hw.Config, *models.Workload, *profiler.Profiler) {
	b.Helper()
	w, err := models.ByName("tutel-moe", 32)
	if err != nil {
		b.Fatal(err)
	}
	prof := profiler.New(w.Graph)
	src := workload.NewSource(1)
	for _, batch := range w.GenTrace(src, 24, 32) {
		units, err := w.Graph.AssignUnits(batch.Units, batch.Routing)
		if err != nil {
			b.Fatal(err)
		}
		if err := prof.ObserveBatch(units, batch.Routing, 1); err != nil {
			b.Fatal(err)
		}
	}
	return hw.Default(), w, prof
}

// BenchmarkScheduleReplan measures the cost the plan cache exists to avoid:
// one full sched.Schedule solve at a live profile — what every drift or fault
// re-plan pays without the cache.
func BenchmarkScheduleReplan(b *testing.B) {
	cfg, w, prof := replanInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(cfg, w.Graph, sched.Adyna(), prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheLookup measures the replacement cost: a warm exact-key
// cache lookup at the identical inputs (one profile hash plus a map probe).
func BenchmarkPlanCacheLookup(b *testing.B) {
	cfg, w, prof := replanInputs(b)
	comp := sched.NewCompiler(w.Graph)
	c := plancache.New(plancache.NewKeyer(w.Graph), plancache.Config{})
	if _, _, err := c.GetOrScheduleFor("", cfg, comp, sched.Adyna(), prof); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, kind, err := c.GetOrScheduleFor("", cfg, comp, sched.Adyna(), prof)
		if err != nil || kind != plancache.HitExact || plan == nil {
			b.Fatalf("warm lookup: kind=%v err=%v", kind, err)
		}
	}
}

// BenchmarkAOTPrecompute measures a serving bring-up with ahead-of-time plan
// precompute: serve.New for moe with each degraded config of a fault
// schedule (a single-tile loss, a quarter-chip brownout over it, and an HBM
// window) solved at start-up, every solve compiling through the bring-up's
// kernel memo.
func BenchmarkAOTPrecompute(b *testing.B) {
	rc := core.DefaultRunConfig()
	rc.Batch, rc.Warmup = 32, 10
	fs, err := faults.ParseSpec("fail@20M:tiles=5;brownout@30M:tiles=0-35,repair=20M;hbm@60M:factor=0.5,until=80M")
	if err != nil {
		b.Fatal(err)
	}
	cfg := serve.Config{Model: "moe", RC: rc, PlanCache: true, PlanCacheNearest: true, PlanCacheAOT: true, Faults: fs}
	b.ReportAllocs()
	var plans, searches int64
	for i := 0; i < b.N; i++ {
		s, err := serve.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		plans = int64(s.PlanCacheStats().AOTEntries)
		_, searches = s.Setup().Comp.Stats()
	}
	b.ReportMetric(float64(plans), "aot-plans")
	b.ReportMetric(float64(searches), "blocking-searches")
}

// BenchmarkDensityEvaluate measures the per-batch cost of density-aware
// entity evaluation on the serving hot path: a warm costmodel cache queried
// at a rotating set of densities for one of the GNN's sparse aggregation
// operators. After the first lap every density bucket is memoized, so this
// is the steady-state price each density-carrying batch pays at dispatch.
func BenchmarkDensityEvaluate(b *testing.B) {
	cfg := hw.Default()
	w, err := models.ByName("gcn", 32)
	if err != nil {
		b.Fatal(err)
	}
	dops := w.Graph.DensityOps()
	if len(dops) == 0 {
		b.Fatal("gcn has no density-aware operators")
	}
	op := w.Graph.Op(dops[0])
	blk, _, err := costmodel.Optimize(cfg, op, op.MaxUnits, 8)
	if err != nil {
		b.Fatal(err)
	}
	c := costmodel.NewCache(cfg)
	densities := []float64{1, 0.75, 0.5, 0.3, 0.21}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := densities[i%len(densities)]
		if _, err := c.EvaluateDensity(op, blk, op.MaxUnits, op.MaxUnits/2, 8, true, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllModelsAdyna is a throughput smoke bench: simulate every
// workload under the full Adyna design at reduced scale.
func BenchmarkAllModelsAdyna(b *testing.B) {
	for _, name := range models.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.DesignAdyna, name, quick().RC); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
