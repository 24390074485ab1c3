package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/mtserve"
	"repro/internal/plancache"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// pass is one complete, fixed-size execution of a workload. Everything in it
// except the host timings is a function of the seed alone.
type pass struct {
	setupS   []float64 // host seconds of each bring-up call
	runS     float64   // host seconds of the measured phase, set-up excluded
	requests int       // requests reaching a terminal outcome (samples on the matrix)
	batches  int       // executed batches
	lats     []float64 // virtual latency samples, cycles
	p50, p99 float64   // virtual latency percentiles, cycles
	layer    map[string]float64
	chk      *checker
	busy     busySplit // virtual busy cycles (telemetry passes only)
	jobS     []float64 // host seconds of each runner job (traced matrix pass)
	notes    []string  // findings worth printing that are not failures
}

func newPass() *pass { return &pass{layer: map[string]float64{}, chk: newChecker()} }

// latencyPercentiles sets p50 and p99 over the pooled latency samples.
func (p *pass) latencyPercentiles() {
	p.p50, p.p99 = metrics.Percentile(p.lats, 0.50), metrics.Percentile(p.lats, 0.99)
}

// passMode selects what a pass records besides its results.
type passMode struct {
	spans     *spanLog // spans around every public call; nil records none
	telemetry bool     // attach the machine telemetry recorder
}

type workloadDef struct {
	name string
	run  func(seed int64, scale float64, m passMode) (*pass, error)
}

var workloads = []workloadDef{
	{"paper-matrix", runPaperMatrix},
	{"serve-drift", runServeDrift},
	{"fleet-affinity", runFleetAffinity},
	{"tenants", runTenants},
}

// workers is the worker count of every parallel layer: one per CPU.
func workers() int { return runtime.NumCPU() }

// subSeed derives the seed of a pass's i-th independent sub-run. Pooling
// several short streams per pass narrows the seed-to-seed spread of the
// tail percentiles without lengthening any one stream.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

func executedLatencies(outs []serve.RequestResult) []float64 {
	var lats []float64
	for _, o := range outs {
		if o.Outcome != serve.Shed {
			lats = append(lats, float64(o.Latency()))
		}
	}
	return lats
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servingAgg pools the counters of every server, replica or tenant a pass
// ran into the per-layer metrics.
type servingAgg struct {
	requests, missed, shed, batches, samples, reschedules int
	maxDiv                                                float64
	reconfig, hostSolve, final                            int64
	mach                                                  map[string]int64
	peCycles, hbmCycles                                   float64
	exact, nearest, misses, aot, shared, evictions        int64
	solves                                                int64
}

func (a *servingAgg) report(rep *serve.Report, samplesPerReq int) {
	a.requests += rep.Requests
	a.missed += rep.Missed
	a.shed += rep.Shed
	a.batches += rep.Batches
	a.samples += (rep.Served + rep.Missed) * samplesPerReq
	a.reschedules += rep.Reschedules + rep.HealthReschedules
	a.maxDiv = math.Max(a.maxDiv, rep.MaxDivergence)
	a.reconfig += rep.ReconfigCycles
	a.hostSolve += rep.HostSolveCycles
	a.final += rep.FinalCycles
}

// machine adds one server's machine and cost-model counters.
func (a *servingAgg) machine(s serve.Snapshot) {
	if a.mach == nil {
		a.mach = map[string]int64{}
	}
	for k, v := range s.Counters {
		if strings.HasPrefix(k, "machine_") || strings.HasPrefix(k, "costmodel_") {
			a.mach[k] += v
		}
	}
	cyc := float64(s.Counters["machine_cycles"])
	a.peCycles += s.Gauges["pe_utilization"] * cyc
	a.hbmCycles += s.Gauges["hbm_utilization"] * cyc
}

// cache adds one plan cache's counters; bringups is the number of servers
// that solved a bring-up plan into it.
func (a *servingAgg) cache(st plancache.Stats, bringups int) {
	a.exact += st.ExactHits
	a.nearest += st.NearestHits
	a.misses += st.Misses
	a.aot += int64(st.AOTEntries)
	a.shared += st.SharedHits
	a.evictions += st.Evictions
	a.solves += st.Misses + int64(st.AOTEntries) + int64(bringups)
}

func (a *servingAgg) fill(l map[string]float64) {
	l["slo_miss_rate"] = ratio(float64(a.missed+a.shed), float64(a.requests))
	l["serve.batches"] = float64(a.batches)
	l["serve.samples_per_batch"] = ratio(float64(a.samples), float64(a.batches))
	l["serve.reschedules"] = float64(a.reschedules)
	l["serve.drift_max_divergence"] = a.maxDiv
	l["virt.reconfig_share"] = ratio(float64(a.reconfig), float64(a.final))
	l["virt.host_solve_share"] = ratio(float64(a.hostSolve), float64(a.final))
	if a.mach != nil {
		cyc := float64(a.mach["machine_cycles"])
		mb := float64(a.mach["machine_batches"])
		l["accel.pe_util"] = ratio(a.peCycles, cyc)
		l["accel.hbm_util"] = ratio(a.hbmCycles, cyc)
		l["accel.useful_mac_ratio"] = ratio(float64(a.mach["machine_useful_macs"]), float64(a.mach["machine_macs"]))
		l["accel.kernel_selections_per_batch"] = ratio(float64(a.mach["machine_kernel_selections"]), mb)
		l["accel.noc_byte_hops_per_batch"] = ratio(float64(a.mach["machine_noc_byte_hops"]), mb)
		l["accel.hbm_bytes_per_batch"] = ratio(float64(a.mach["machine_hbm_bytes"]), mb)
		h, m := float64(a.mach["costmodel_cache_hits"]), float64(a.mach["costmodel_cache_misses"])
		l["costmodel.hits"] = h
		l["costmodel.misses"] = m
		l["costmodel.hit_rate"] = ratio(h, h+m)
	}
	l["plancache.exact"] = float64(a.exact)
	l["plancache.nearest"] = float64(a.nearest)
	l["plancache.misses"] = float64(a.misses)
	l["plancache.hit_rate"] = ratio(float64(a.exact+a.nearest), float64(a.exact+a.nearest+a.misses))
	l["plancache.aot_entries"] = float64(a.aot)
	l["plancache.shared_hits"] = float64(a.shared)
	l["plancache.evictions"] = float64(a.evictions)
	l["sched.solves"] = float64(a.solves)
}

// newTrace returns a telemetry trace when the pass records one, else nil
// (recording off).
func (m passMode) newTrace() *telemetry.Trace {
	if m.telemetry {
		return telemetry.NewTrace()
	}
	return nil
}

// serve-drift: one moe chip under serve.Server, pipelined, with an open-loop
// Poisson stream whose rate random-walks, a low drift threshold, and the
// plan cache with ahead-of-time precompute, nearest hits and a host-solve
// charge per miss.
const (
	driftSubruns  = 8
	driftRequests = 1500
	driftGap      = 22_000
)

func runServeDrift(seed int64, scale float64, m passMode) (*pass, error) {
	p := newPass()
	n := scaled(driftRequests, scale)
	var agg servingAgg
	for i := 0; i < driftSubruns; i++ {
		sub := subSeed(seed, i)
		rc := core.DefaultRunConfig()
		rc.Batch, rc.Warmup, rc.Seed = 32, 10, sub
		rc.Trace = m.newTrace()
		cfg := serve.Config{
			Model:             "moe",
			RC:                rc,
			SLOCycles:         2_500_000,
			PipelineDepth:     4,
			Reschedule:        true,
			DriftThreshold:    0.005,
			CheckEvery:        4,
			CooldownBatches:   8,
			PlanCache:         true,
			PlanCacheNearest:  true,
			PlanCacheAOT:      true,
			HostReschedCycles: 2_000_000,
		}
		var srv *serve.Server
		d, err := m.spans.timed("serve.New", 0, func(int) (err error) {
			srv, err = serve.New(cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("serve-drift: %w", err)
		}
		p.setupS = append(p.setupS, d)
		// A strong pull toward the mean rate keeps each stream's average load
		// close to nominal while the rate still moves within every window.
		rate := workload.NewDrift(1, 0.25, 2.5, 0.12)
		rate.Reverting = 0.1
		src := serve.NewSynthetic(n, driftGap, sub+1, rate)
		var rep *serve.Report
		d, err = m.spans.timed("serve.Serve", 0, func(int) (err error) {
			rep, err = srv.Serve(src)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("serve-drift: %w", err)
		}
		p.runS += d
		label := fmt.Sprintf("run%d", i)
		p.chk.counts(label, rep.Requests, rep.Served, rep.Missed, rep.Shed)
		p.chk.outcomes(label, rep.Outcomes, n)
		agg.report(rep, 1)
		agg.machine(srv.Snapshot())
		agg.cache(srv.PlanCacheStats(), 1)
		p.requests += rep.Requests
		p.batches += rep.Batches
		p.lats = append(p.lats, executedLatencies(rep.Outcomes)...)
		if rc.Trace != nil {
			p.busy.add(rc.Trace)
		}
	}
	p.latencyPercentiles()
	agg.fill(p.layer)
	return p, nil
}

// fleet-affinity: four moe replicas behind plan-affinity routing, sharing
// one plan cache, serving the drifting three-class mix on the blocking serve
// loop while one replica browns out and is repaired.
const (
	fleetSubruns  = 24
	fleetRequests = 100
	fleetGap      = 900_000
	fleetSamples  = 32
)

func runFleetAffinity(seed int64, scale float64, m passMode) (*pass, error) {
	p := newPass()
	n := scaled(fleetRequests, scale)
	var agg servingAgg
	var reroutes, replans, routedMax, routedAll int
	var distSum float64
	for i := 0; i < fleetSubruns; i++ {
		sub := subSeed(seed, i)
		rc := core.DefaultRunConfig()
		rc.Batch, rc.Warmup, rc.Seed = fleetSamples, 8, sub
		rc.Trace = m.newTrace()
		// The brown-out spans the second quarter of the stream.
		span := float64(n) * fleetGap
		cfg := fleet.Config{
			Base: serve.Config{
				Model:            "moe",
				RC:               rc,
				SLOCycles:        50_000_000,
				Reschedule:       true,
				DriftThreshold:   0.045,
				CheckEvery:       4,
				CooldownBatches:  8,
				PlanCache:        true,
				PlanCacheNearest: true,
				PlanCacheMaxDist: 0.10,
			},
			Replicas: fleet.HomogeneousSpecs(4, rc.HW),
			Policy:   fleet.PolicyAffinity,
			Workers:  workers(),
			// Spill to the next-closest replica at a two-request backlog.
			AffinitySpillSamples: 2 * fleetSamples,
			ReplicaFaults: &faults.Schedule{Events: []faults.Event{{
				At: int64(0.25 * span), Kind: faults.TileBrownout, Tiles: []int{1}, Until: int64(0.5 * span),
			}}},
		}
		var f *fleet.Fleet
		d, err := m.spans.timed("fleet.New", 0, func(int) (err error) {
			f, err = fleet.New(cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fleet-affinity: %w", err)
		}
		p.setupS = append(p.setupS, d)
		src, err := fleet.NewMixSource(fleet.MixConfig{
			Model: "moe", Classes: 3, Requests: n, Samples: fleetSamples,
			MeanGapCycles: fleetGap, Seed: sub, MixWalkSD: 0.20,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet-affinity: %w", err)
		}
		var rep *fleet.Report
		d, err = m.spans.timed("fleet.Serve", 0, func(int) (err error) {
			rep, err = f.Serve(src)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fleet-affinity: %w", err)
		}
		p.runS += d
		label := fmt.Sprintf("run%d", i)
		p.chk.counts(label, rep.Requests, rep.Served, rep.Missed, rep.Shed)
		if rep.Requests != n {
			p.chk.failf("%s: fleet recorded %d requests, the stream had %d", label, rep.Requests, n)
		}
		var outs []serve.RequestResult
		maxRouted, sumRouted := 0, 0
		for _, r := range rep.Replicas {
			rr := r.Report
			p.chk.counts(label+"/"+r.Name, rr.Requests, rr.Served, rr.Missed, rr.Shed)
			p.chk.record("%s replica %s %d", label, r.Name, len(rr.Outcomes))
			outs = append(outs, rr.Outcomes...)
			agg.report(rr, fleetSamples)
			maxRouted = max(maxRouted, r.Routed)
			sumRouted += r.Routed
		}
		p.chk.outcomes(label, outs, n)
		for _, s := range f.Snapshot().Replicas {
			agg.machine(s)
		}
		agg.cache(f.PlanCache().Stats(), len(rep.Replicas))
		reroutes += rep.Reroutes
		replans += rep.Reschedules + rep.HealthReschedules
		routedMax += maxRouted
		routedAll += sumRouted
		distSum += rep.MeanAffinityDist
		p.requests += rep.Requests
		p.batches += rep.Batches
		p.lats = append(p.lats, executedLatencies(outs)...)
		if rc.Trace != nil {
			p.busy.add(rc.Trace)
		}
	}
	p.latencyPercentiles()
	agg.fill(p.layer)
	p.layer["fleet.routed_max_share"] = ratio(float64(routedMax), float64(routedAll))
	p.layer["fleet.reroutes"] = float64(reroutes)
	p.layer["fleet.mean_affinity_dist"] = distSum / fleetSubruns
	p.layer["fleet.replans"] = float64(replans)
	return p, nil
}

// tenants: three co-resident tenants under mtserve's repartitioning
// controller with the plan cache on — fbsnet ramping toward 1.9x its rate,
// dpsnet steady, and gcn on its native density walk.
const tenantsSubruns = 12

func runTenants(seed int64, scale float64, m passMode) (*pass, error) {
	p := newPass()
	var agg servingAgg
	var repartitions int
	var worstP99 float64
	for i := 0; i < tenantsSubruns; i++ {
		sub := subSeed(seed, i)
		rc := core.DefaultRunConfig()
		rc.Batch, rc.Warmup, rc.Seed = 16, 8, sub
		rc.Trace = m.newTrace()
		cfg := mtserve.Config{
			Tenants: []mtserve.Tenant{
				{Name: "burst", Model: "fbsnet", SLOCycles: 4_000_000, MeanGapCycles: 37_000,
					Requests: scaled(1000, scale), RateWalkSD: 0.02, RateBias: 1.9, RateRevert: 0.006, Weight: 36},
				{Name: "steady", Model: "dpsnet", SLOCycles: 4_000_000, MeanGapCycles: 36_000,
					Requests: scaled(1400, scale), RateWalkSD: 0.02, Weight: 26},
				{Name: "graph", Model: "gcn", SLOCycles: 4_000_000, MeanGapCycles: 60_000,
					Requests: scaled(1000, scale)},
			},
			RC:               rc,
			Mode:             mtserve.ModeRepartition,
			MaxBatch:         16,
			MinTiles:         28,
			DriftThreshold:   0.06,
			CheckEvery:       4,
			CooldownBatches:  8,
			StarvePressure:   0.35,
			PlanCache:        true,
			PlanCacheNearest: true,
		}
		var srv *mtserve.Server
		d, err := m.spans.timed("mtserve.New", 0, func(int) (err error) {
			srv, err = mtserve.New(cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("tenants: %w", err)
		}
		p.setupS = append(p.setupS, d)
		var rep *mtserve.Report
		d, err = m.spans.timed("mtserve.Serve", 0, func(int) (err error) {
			rep, err = srv.Serve()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("tenants: %w", err)
		}
		p.runS += d
		label := fmt.Sprintf("run%d", i)
		p.chk.counts(label, rep.Requests, rep.Served, rep.Missed, rep.Shed)
		if len(rep.Tenants) != len(cfg.Tenants) {
			p.chk.failf("%s: %d tenant reports for %d tenants", label, len(rep.Tenants), len(cfg.Tenants))
		}
		for j, tr := range rep.Tenants {
			tl := label + "/" + tr.Name
			p.chk.counts(tl, tr.Requests, tr.Served, tr.Missed, tr.Shed)
			if j < len(cfg.Tenants) {
				p.chk.outcomes(tl, tr.Outcomes, cfg.Tenants[j].Requests)
			}
			p.lats = append(p.lats, executedLatencies(tr.Outcomes)...)
			agg.cache(plancache.Stats{
				ExactHits: int64(tr.PlanCacheExact), NearestHits: int64(tr.PlanCacheNearest),
				Misses: int64(tr.PlanCacheMisses),
			}, 1)
			agg.final += tr.FinalCycles
			worstP99 = math.Max(worstP99, tr.Latency.P99)
		}
		agg.requests += rep.Requests
		agg.missed += rep.Missed
		agg.shed += rep.Shed
		agg.batches += rep.Batches
		agg.samples += rep.Served + rep.Missed
		agg.reschedules += rep.Reschedules
		agg.reconfig += rep.ReconfigCycles
		agg.hostSolve += rep.HostSolveCycles
		repartitions += rep.Repartitions
		p.requests += rep.Requests
		p.batches += rep.Batches
		if rc.Trace != nil {
			p.busy.add(rc.Trace)
		}
	}
	p.latencyPercentiles()
	agg.fill(p.layer)
	p.layer["mtserve.repartitions"] = float64(repartitions)
	p.layer["mtserve.reschedules"] = float64(agg.reschedules)
	p.layer["mtserve.worst_tenant_p99_cycles"] = worstP99
	p.layer["mtserve.reconfig_cycles"] = float64(agg.reconfig)
	return p, nil
}

// paper-matrix: the paper's own evaluation as an offline batch job — the
// Figure 9 design matrix over the five Table I models at batch 128 — plus
// per-batch completion latencies of the Adyna design, whose bring-ups are
// the workload's set-up.
const (
	latencySeeds   = 2
	latencyWindows = 3
)

// paperHeadlines pairs each Figure9Headlines ratio with the paper's value.
func paperHeadlines(h experiments.Headlines) [][2]float64 {
	return [][2]float64{
		{h.AdynaVsMTile, 1.70}, {h.AdynaVsMTileMax, 2.32}, {h.AdynaVsMTenant, 1.57},
		{h.AdynaVsMTenantMax, 2.01}, {h.StaticVsMTile, 1.41}, {h.RuntimeGain, 1.21},
		{h.AdynaOfFullKernel, 0.87}, {h.AdynaVsGPU, 11.7}, {h.MTenantVsMTile, 1.09},
	}
}

func runPaperMatrix(seed int64, scale float64, m passMode) (*pass, error) {
	p := newPass()
	opt := experiments.Default()
	opt.RC.Seed = seed
	opt.RC.Batches = scaled(opt.RC.Batches, scale)
	opt.RC.Warmup = scaled(opt.RC.Warmup, scale)
	opt.Workers = workers()

	var mat *experiments.Matrix
	var err error
	if m.spans == nil && !m.telemetry {
		p.runS, err = m.spans.timed("experiments.RunMatrix", 0, func(int) (err error) {
			mat, err = experiments.RunMatrix(opt)
			return err
		})
	} else {
		p.runS, err = m.spans.timed("matrix", 0, func(id int) (err error) {
			mat, err = matrixJobs(opt, m, id, p)
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("paper-matrix: %w", err)
	}
	var cyc, reconf int64
	for _, name := range mat.Models {
		for _, d := range mat.Designs {
			r := mat.Results[name][d]
			p.chk.record("%s %s %+v", name, d, r)
			p.batches += r.Batches
			if d == core.DesignAdyna {
				cyc += r.Cycles
				reconf += r.ReconfigCycles
			}
		}
	}
	p.requests = p.batches * opt.RC.Batch
	checkMatrix(p.chk, mat, opt.RC.Batches)
	p.notes = orderingNotes(mat)
	h := experiments.Figure9Headlines(mat)
	var gap float64
	for _, hv := range paperHeadlines(h) {
		gap += math.Abs(hv[0]/hv[1] - 1)
	}
	agg, err := adynaLatencies(opt.RC, scale, m, p)
	if err != nil {
		return nil, fmt.Errorf("paper-matrix: %w", err)
	}
	agg.fill(p.layer)
	p.layer["adyna_speedup_x"] = h.AdynaVsMTile
	p.layer["paper_gap_pct"] = 100 * gap / float64(len(paperHeadlines(h)))
	p.layer["virt.reconfig_share"] = ratio(float64(reconf), float64(cyc))
	return p, nil
}

// orderingNotes lists where the matrix departs from the design orderings
// EXPERIMENTS.md reports at seed 1: static <= Adyna <= full-kernel on the
// geomean, and M-tile <= M-tenant <= Adyna on every model. They are notes,
// not failures: other seeds flip some of them (FBSNet and DPSNet sit close
// to the lines), so they describe the seed rather than a defect.
func orderingNotes(mat *experiments.Matrix) []string {
	var notes []string
	gm := func(d core.Design) float64 { return mat.GeomeanSpeedup(d, core.DesignMTile) }
	if s, a, f := gm(core.DesignAdynaStatic), gm(core.DesignAdyna), gm(core.DesignFullKernel); !(s <= a && a <= f) {
		notes = append(notes, fmt.Sprintf("geomean speedups over M-tile flip: static %.3f, Adyna %.3f, full-kernel %.3f", s, a, f))
	}
	for _, name := range mat.Models {
		mt := mat.Speedup(name, core.DesignMTenant, core.DesignMTile)
		ad := mat.Speedup(name, core.DesignAdyna, core.DesignMTile)
		if !(1 <= mt && mt <= ad) {
			notes = append(notes, fmt.Sprintf("%s: speedups over M-tile flip: M-tenant %.3f, Adyna %.3f", name, mt, ad))
		}
	}
	return notes
}

// checkMatrix asserts what must hold at every seed: every (model, design)
// point executed the whole trace in positive time, and Adyna beats M-tile
// on the geomean, the paper's central claim.
func checkMatrix(c *checker, mat *experiments.Matrix, batches int) {
	for _, name := range mat.Models {
		for _, d := range mat.Designs {
			if r := mat.Results[name][d]; r.Batches != batches || r.Cycles <= 0 {
				c.failf("%s on %s: %d batches in %d cycles, want %d batches", d, name, r.Batches, r.Cycles, batches)
			}
		}
	}
	if a := mat.GeomeanSpeedup(core.DesignAdyna, core.DesignMTile); !(a > 1) {
		c.failf("Adyna's geomean speedup over M-tile is %.3f", a)
	}
}

// matrixJobs is experiments.RunMatrix with every (design, model) core.Run
// timed on its own, for the traced run's runner metrics. Its results must
// equal RunMatrix's; the outcome digest checks that.
func matrixJobs(opt experiments.Options, m passMode, parent int, p *pass) (*experiments.Matrix, error) {
	mat := &experiments.Matrix{
		Models:  models.Names(),
		Designs: core.Figure9Designs(),
		Results: map[string]map[core.Design]metrics.RunResult{},
	}
	type point struct {
		model  string
		design core.Design
	}
	var pts []point
	for _, name := range mat.Models {
		for _, d := range mat.Designs {
			pts = append(pts, point{name, d})
		}
	}
	p.jobS = make([]float64, len(pts))
	var mu sync.Mutex
	rs, err := runner.Map(opt.Workers, len(pts), func(i int) (r metrics.RunResult, err error) {
		rc := opt.RC
		rc.Trace = m.newTrace()
		p.jobS[i], err = m.spans.timed("core.Run", parent, func(int) (err error) {
			r, err = core.Run(pts[i].design, pts[i].model, rc)
			return err
		})
		if rc.Trace != nil {
			mu.Lock()
			p.busy.add(rc.Trace)
			mu.Unlock()
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		if mat.Results[pt.model] == nil {
			mat.Results[pt.model] = map[core.Design]metrics.RunResult{}
		}
		mat.Results[pt.model][pt.design] = rs[i]
	}
	return mat, nil
}

// adynaLatencies brings the Adyna design up on every model at a few seeds
// (the set-up each core.Run does internally), runs a few execution windows
// on each, and pools the per-batch completion latencies and machine counters.
func adynaLatencies(base core.RunConfig, scale float64, m passMode, p *pass) (*servingAgg, error) {
	agg := &servingAgg{mach: map[string]int64{}}
	var p50s, p99s []float64
	for _, name := range models.Names() {
		var lats []float64
		for i := 0; i < latencySeeds; i++ {
			rc := base
			rc.Seed = subSeed(base.Seed, i)
			rc.Trace = m.newTrace()
			var setup *core.Setup
			d, err := m.spans.timed("core.Bringup", 0, func(int) (err error) {
				setup, err = core.Bringup(core.DesignAdyna, name, rc, nil)
				return err
			})
			if err != nil {
				return nil, err
			}
			p.setupS = append(p.setupS, d)
			for w := 0; w < latencyWindows; w++ {
				batches := setup.W.GenTrace(setup.Src, scaled(core.ExecWindow, scale), rc.Batch)
				if _, err := m.spans.timed("accel.Run", 0, func(int) error { return setup.M.Run(batches) }); err != nil {
					return nil, err
				}
			}
			for _, l := range setup.M.Latencies() {
				p.chk.record("latency %s %d %d", name, l.Start, l.Done)
				if l.Done < l.Start {
					p.chk.failf("%s: batch done at %d before its start %d", name, l.Done, l.Start)
				}
				lats = append(lats, float64(l.Cycles()))
			}
			st := setup.M.Stats()
			cyc := float64(st.Cycles)
			agg.mach["machine_cycles"] += st.Cycles
			agg.mach["machine_batches"] += int64(st.Batches)
			agg.mach["machine_macs"] += st.MACs
			agg.mach["machine_useful_macs"] += st.UsefulMACs
			agg.mach["machine_kernel_selections"] += st.KernelSelections
			agg.mach["machine_noc_byte_hops"] += st.NoCByteHops
			agg.mach["machine_hbm_bytes"] += st.HBMBytes
			agg.peCycles += setup.M.PEUtilization() * cyc
			agg.hbmCycles += setup.M.HBMUtilization() * cyc
			h, mi := setup.Plan.CacheStats()
			agg.mach["costmodel_cache_hits"] += h
			agg.mach["costmodel_cache_misses"] += mi
			if rc.Trace != nil {
				p.busy.add(rc.Trace)
			}
		}
		p.lats = append(p.lats, lats...)
		p50s = append(p50s, metrics.Percentile(lats, 0.50))
		p99s = append(p99s, metrics.Percentile(lats, 0.99))
	}
	// The five models' batch latencies differ by up to an order of
	// magnitude, so pooled percentiles would fall between the models' modes;
	// the geomean of each model's own percentile does not.
	p.p50, p.p99 = metrics.Geomean(p50s), metrics.Geomean(p99s)
	p.notes = append(p.notes, fmt.Sprintf("p50/p99: geomean over %d models of each model's percentiles, %d batches each",
		len(p50s), len(p.lats)/len(p50s)))
	return agg, nil
}
