package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Figure6 reproduces the allocation-trace study of Figure 6: a SkipNet layer
// skipping block (B1 one conv, B2 two convs, total dyn size 8) scheduled on
// 8 tiles, comparing per-tile workload under static worst-case allocation,
// frequency-weighted allocation, and frequency-weighted allocation with tile
// sharing. The series are the normalized per-tile workloads of the two
// branches over a batch trace.
func Figure6(seed int64, batches int) *metrics.Figure {
	src := workload.NewSource(seed)
	const totalTiles = 8
	// Branch computation demands per sample: B1 has one conv, B2 has two.
	const costB1, costB2 = 1.0, 2.0
	// The paper's measured expectations: 5.03 of 8 samples take B1.
	const pB1 = 5.03 / 8

	// Static allocation assumes both branches see all 8 samples:
	// demand 8*1 : 8*2 = 1:2  ->  3 and 5 tiles.
	staticB1, staticB2 := 3, 5
	// Frequency-weighted: (1*5.03) : (2*2.97) -> 4 and 4 tiles.
	freqB1, freqB2 := 4, 4
	// Tile sharing: the three ratios a:b, 2a:b, a:2b -> 4:4, 5:3, 2:6.
	shareOptions := [][2]int{{4, 4}, {5, 3}, {2, 6}}

	fig := &metrics.Figure{
		Title:  "Figure 6: per-tile workload of branches B1/B2 over batches",
		XLabel: "batch",
		YLabel: "workload per tile (conv-samples)",
	}
	series := map[string]*metrics.Series{}
	for _, name := range []string{"static-B1", "static-B2", "freq-B1", "freq-B2", "share-B1", "share-B2"} {
		series[name] = &metrics.Series{Name: name}
	}
	for b := 0; b < batches; b++ {
		p := src.JitterProb(pB1, 0.12)
		v1 := 0
		for s := 0; s < 8; s++ {
			if src.Bernoulli(p) {
				v1++
			}
		}
		v2 := 8 - v1
		l1, l2 := float64(v1)*costB1, float64(v2)*costB2
		add := func(name string, y float64) {
			s := series[name]
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, y)
		}
		add("static-B1", l1/float64(staticB1))
		add("static-B2", l2/float64(staticB2))
		add("freq-B1", l1/float64(freqB1))
		add("freq-B2", l2/float64(freqB2))
		// Tile sharing picks, per batch, the option minimizing the maximum
		// per-tile workload.
		best := shareOptions[0]
		bestMax := math.Inf(1)
		for _, opt := range shareOptions {
			m := math.Max(l1/float64(opt[0]), l2/float64(opt[1]))
			if m < bestMax {
				bestMax, best = m, opt
			}
		}
		add("share-B1", l1/float64(best[0]))
		add("share-B2", l2/float64(best[1]))
	}
	for _, name := range []string{"static-B1", "static-B2", "freq-B1", "freq-B2", "share-B1", "share-B2"} {
		fig.Series = append(fig.Series, *series[name])
	}
	return fig
}

// Figure6Imbalance summarizes the trace: the mean of the per-batch maximum
// per-tile workload under each strategy (lower is better balance).
func Figure6Imbalance(fig *metrics.Figure) (static, freq, share float64) {
	get := func(name string) []float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				return s.Y
			}
		}
		return nil
	}
	mean := func(a, b []float64) float64 {
		var sum float64
		for i := range a {
			sum += math.Max(a[i], b[i])
		}
		return sum / float64(len(a))
	}
	return mean(get("static-B1"), get("static-B2")),
		mean(get("freq-B1"), get("freq-B2")),
		mean(get("share-B1"), get("share-B2"))
}

// Figure12 sweeps the online scheduling latency of the real-time
// alternative and reports its geomean speedup relative to Adyna (Section
// IX-D). The crossover latency is where the ratio passes 1.0.
func Figure12(opt Options, latenciesUS []float64) (*metrics.Figure, float64, error) {
	if len(latenciesUS) == 0 {
		latenciesUS = []float64{0, 25, 50, 100, 200, 390, 600, 1000}
	}
	names := models.Names()
	// The Adyna reference per model, then every latency×model point of the
	// real-time design; all of a model's runs share one trace. Sweep runs get
	// explicit trace names (here and in the other sweeps): several points
	// share a design/model pair, so the default recorder naming would collide.
	var jobs []core.Job
	for _, name := range names {
		rc := opt.RC
		rc.TraceName = "fig12/adyna/" + name
		jobs = append(jobs, core.Job{Design: core.DesignAdyna, Model: name, RC: rc})
	}
	for _, us := range latenciesUS {
		rc := opt.RC
		rc.OnlineSchedCycles = int64(us * 1000 * rc.HW.ClockGHz)
		for _, name := range names {
			rc.TraceName = fmt.Sprintf("fig12/realtime/%s@%gus", name, us)
			jobs = append(jobs, core.Job{Design: core.DesignRealtime, Model: name, RC: rc})
		}
	}
	rs, err := core.RunJobs(opt.Workers, jobs)
	if err != nil {
		return nil, 0, err
	}
	adyna, rts := rs[:len(names)], rs[len(names):]
	fig := &metrics.Figure{
		Title:  "Figure 12: real-time scheduling vs Adyna",
		XLabel: "sched latency (us)",
		YLabel: "speedup of real-time over Adyna (>1 means real-time wins)",
	}
	s := metrics.Series{Name: "realtime/adyna"}
	var crossover float64 = math.NaN()
	var prevX, prevY float64
	for i, us := range latenciesUS {
		var ratios []float64
		for j, rt := range rts[:len(names)] {
			ratios = append(ratios, adyna[j].CyclesPerBatch()/rt.CyclesPerBatch())
		}
		rts = rts[len(names):]
		y := metrics.Geomean(ratios)
		s.X = append(s.X, us)
		s.Y = append(s.Y, y)
		if i > 0 && math.IsNaN(crossover) && (prevY-1)*(y-1) < 0 {
			// Linear interpolation of the crossover latency.
			crossover = prevX + (us-prevX)*(prevY-1)/(prevY-y)
		}
		prevX, prevY = us, y
	}
	fig.Series = append(fig.Series, s)
	return fig, crossover, nil
}

// Figure13 sweeps batch sizes and reports Adyna's geomean speedup over
// M-tile at each (paper: 1.29/1.37/1.49/1.61/1.70 for 1/4/16/64/128).
func Figure13(opt Options, batchSizes []int) (*metrics.Figure, error) {
	if len(batchSizes) == 0 {
		batchSizes = []int{1, 4, 16, 64, 128}
	}
	fig := &metrics.Figure{
		Title:  "Figure 13: Adyna speedup over M-tile vs batch size",
		XLabel: "batch size",
		YLabel: "geomean speedup",
	}
	all := metrics.Series{Name: "geomean"}
	names := models.Names()
	perModel := map[string]*metrics.Series{}
	for _, name := range names {
		perModel[name] = &metrics.Series{Name: name}
	}
	// Every batch-size×model point is an independent M-tile/Adyna pair on
	// one trace; the series are assembled in sweep order afterwards.
	var jobs []core.Job
	for _, bs := range batchSizes {
		rc := opt.RC
		rc.Batch = bs
		for _, name := range names {
			jobs = append(jobs, vsMTile("fig13", fmt.Sprintf("%s/b%d", name, bs), name, rc)...)
		}
	}
	rs, err := core.RunJobs(opt.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for _, bs := range batchSizes {
		var sp []float64
		for _, name := range names {
			s := rs[1].SpeedupOver(rs[0])
			rs = rs[2:]
			sp = append(sp, s)
			perModel[name].X = append(perModel[name].X, float64(bs))
			perModel[name].Y = append(perModel[name].Y, s)
		}
		all.X = append(all.X, float64(bs))
		all.Y = append(all.Y, metrics.Geomean(sp))
	}
	for _, name := range names {
		fig.Series = append(fig.Series, *perModel[name])
	}
	fig.Series = append(fig.Series, all)
	return fig, nil
}

// ReconfigSweep is the Section V-C ablation: Adyna's throughput and
// reconfiguration overhead at different re-scheduling periods.
func ReconfigSweep(opt Options, periods []int) (*metrics.Table, error) {
	if len(periods) == 0 {
		periods = []int{10, 20, 40, 80}
	}
	t := &metrics.Table{
		Title:   "Reconfiguration-period ablation (SkipNet)",
		Columns: []string{"Period (batches)", "Cycles/batch", "Reconfig overhead"},
	}
	var jobs []core.Job
	for _, p := range periods {
		rc := opt.RC
		rc.TraceName = fmt.Sprintf("reconfig/skipnet/p%d", p)
		jobs = append(jobs, core.Job{Design: core.DesignAdyna, Model: "skipnet", RC: rc,
			Policy: func(pol *sched.Policy) { pol.ResamplePeriod = p }})
	}
	rs, err := core.RunJobs(opt.Workers, jobs)
	if err != nil {
		return nil, err
	}
	for i, p := range periods {
		r := rs[i]
		over := float64(r.ReconfigCycles) / float64(r.Cycles)
		t.AddRow(fmt.Sprint(p), metrics.F(r.CyclesPerBatch(), 0), metrics.F(over*100, 2)+"%")
	}
	return t, nil
}

// KernelBudgetSweep is the Section VII ablation: Adyna's performance as the
// per-operator kernel budget shrinks from the hardware maximum down to a
// single kernel.
func KernelBudgetSweep(opt Options, budgets []int) (*metrics.Figure, error) {
	if len(budgets) == 0 {
		budgets = []int{1, 2, 4, 8, 16, 33}
	}
	fig := &metrics.Figure{
		Title:  "Kernel-budget ablation: Adyna speedup over M-tile vs kernels per operator",
		XLabel: "kernels per operator (per allocation option)",
		YLabel: "geomean speedup over M-tile",
	}
	s := metrics.Series{Name: "adyna"}
	names := models.Names()
	// The M-tile reference does not depend on the kernel budget: run it once
	// per model instead of once per sweep point.
	var jobs []core.Job
	for _, name := range names {
		rc := opt.RC
		rc.TraceName = "budget/mtile/" + name
		jobs = append(jobs, core.Job{Design: core.DesignMTile, Model: name, RC: rc})
	}
	for _, budget := range budgets {
		for _, name := range names {
			rc := opt.RC
			rc.TraceName = fmt.Sprintf("budget/adyna/%s/k%d", name, budget)
			jobs = append(jobs, core.Job{Design: core.DesignAdyna, Model: name, RC: rc,
				Policy: func(p *sched.Policy) { p.KernelBudget = budget }})
		}
	}
	rs, err := core.RunJobs(opt.Workers, jobs)
	if err != nil {
		return nil, err
	}
	mts, ads := rs[:len(names)], rs[len(names):]
	for _, budget := range budgets {
		var sp []float64
		for j, ad := range ads[:len(names)] {
			sp = append(sp, ad.SpeedupOver(mts[j]))
		}
		ads = ads[len(names):]
		s.X = append(s.X, float64(budget))
		s.Y = append(s.Y, metrics.Geomean(sp))
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// SamplingDemo shows the multi-kernel sampling algorithm converging on a
// skewed distribution: matching loss before and after re-sampling.
func SamplingDemo(seed int64) *metrics.Table {
	src := workload.NewSource(seed)
	ft := profiler.NewFreqTable(8192)
	for i := 0; i < 20000; i++ {
		v := src.NormInt(2000, 450, 1, 8192)
		ft.Observe(v)
	}
	vals := sampling.Initial(8192, 32)
	before := sampling.Loss(vals, ft)
	after, _ := sampling.ResampleFromTable(vals, ft, 64)
	t := &metrics.Table{
		Title:   "Multi-kernel sampling (Algorithms 1+2) on a skewed dyn distribution",
		Columns: []string{"Stage", "Matching loss", "Kernels"},
	}
	t.AddRow("uniform initial", metrics.F(before, 0), fmt.Sprint(len(vals)))
	t.AddRow("after re-sampling", metrics.F(sampling.Loss(after, ft), 0), fmt.Sprint(len(after)))
	return t
}

// HybridDemo exercises the representation's coverage claim (Section IV): the
// AdaViT hybrid — patch selection nested with layer skipping — schedules and
// runs end-to-end, and Adyna's advantage holds on it too.
func HybridDemo(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Hybrid DynNN (AdaViT: dynamic region + dynamic depth)",
		Columns: []string{"Design", "Cycles/batch", "Speedup", "PE util"},
	}
	rs, err := core.RunJobs(opt.Workers, vsMTile("hybrid", "adavit", "adavit", opt.RC))
	if err != nil {
		return nil, err
	}
	mt, ad := rs[0], rs[1]
	t.AddRow("M-tile", metrics.F(mt.CyclesPerBatch(), 0), "1.00", metrics.F(mt.PEUtil, 3))
	t.AddRow("Adyna", metrics.F(ad.CyclesPerBatch(), 0), metrics.F(ad.SpeedupOver(mt), 2), metrics.F(ad.PEUtil, 3))
	return t, nil
}

// vsMTile returns the M-tile and Adyna jobs of one comparison point of a
// sweep, recorded as sweep/mtile/point and sweep/adyna/point.
func vsMTile(sweep, point, model string, rc core.RunConfig) []core.Job {
	mt, ad := rc, rc
	mt.TraceName = sweep + "/mtile/" + point
	ad.TraceName = sweep + "/adyna/" + point
	return []core.Job{{Design: core.DesignMTile, Model: model, RC: mt}, {Design: core.DesignAdyna, Model: model, RC: ad}}
}
