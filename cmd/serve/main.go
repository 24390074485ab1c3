// Command serve runs the online serving front-end: timestamped requests
// (synthetic Poisson arrivals or a replayed recording) admitted into a
// deadline-aware batcher, executed on a persistent simulated accelerator,
// with drift-triggered re-scheduling keeping the plan matched to the live
// routing distribution.
//
// Usage:
//
//	serve -model skipnet -requests 2000 -gap 9000 -slo 2500000
//	serve -model skipnet -compare              # rescheduling on vs off
//	serve -replay trace.json -gap 500000       # serve a recorded trace
//	serve -model moe -reschedule=false         # static plan forever
//
// The plan-variant cache (-plancache, see internal/plancache) turns re-plans
// into lookups: ahead-of-time precompute at bring-up plus an online cache,
// with -hostresched charging the solver's latency into virtual time on every
// miss. With -compare it pits cached dispatch against fresh-solve adaptive
// serving on the same arrivals:
//
//	serve -model moe -ratewalk 0.1 -plancache -hostresched 500000
//	serve -model moe -plancache -compare
//
// Fault injection (degraded-mode serving) takes a spec string or a JSON
// schedule file; with -compare it pits fault-aware re-scheduling against a
// frozen plan on the same faulty chip:
//
//	serve -model moe -faults 'fail@2e6:tiles=0-35'
//	serve -model moe -faults faults.json -compare
//
// Multi-tenant serving (-tenants) shares one chip between several models,
// each with its own SLO and arrival stream (see internal/mtserve for the
// spec grammar); with -compare it runs the same tenant mix under static
// partitioning, naive time-slicing and drift-aware re-partitioning:
//
//	serve -tenants 'moe:slo=5M:gap=30k,skipnet:slo=8M:gap=60k'
//	serve -tenants 'fbsnet:gap=37k,dpsnet:gap=36k' -mt-mode timeslice
//	serve -tenants 'moe,fbsnet:prio=1' -compare
//
// Fleet scale-out (-fleet, see internal/fleet) serves a drifting
// multi-class arrival mix on K replica chips behind a router; -route picks
// round-robin, join-shortest-queue, or plan-affinity routing, the replicas
// share one plan cache, -fleet-faults kills and repairs whole replicas, and
// with -compare the same arrivals run under all three policies:
//
//	serve -model moe -fleet 4 -route affinity -plancache
//	serve -fleet 4 -compare
//	serve -fleet-replicas 'big:tiles=12x12,small:tiles=6x6:count=2' -route jsq
//	serve -fleet 3 -fleet-faults 'brownout@8e6:tiles=1,repair=1e7' -fleet-min 1
//
// The parallel engine: -simpar N steps fleet replicas concurrently on N
// worker goroutines (internal/fleet), and
// -pipeline D overlaps up to D batches on one machine (admission and
// plan-cache lookup for batch k+1 run while batch k computes). Both are
// deterministic — -simpar is byte-identical to the sequential sweep at any
// worker count, -pipeline is byte-identical at any GOMAXPROCS:
//
//	serve -fleet 4 -simpar 4 -plancache
//	serve -model moe -pipeline 4
//
// Observability: -trace writes a Chrome-trace/Perfetto JSON timeline of the
// whole run (open in https://ui.perfetto.dev; see internal/telemetry), and
// -stats-json dumps the final counters/gauges snapshot as JSON:
//
//	serve -model moe -trace out.json
//	serve -model moe -compare -stats-json -
//
// All times are machine cycles (the simulated accelerator clock).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mtserve"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		model    = flag.String("model", "moe", "workload model to serve (see adyna -list)")
		design   = flag.String("design", "adyna", "machine design: mtile, static, full, adyna, realtime")
		seed     = flag.Int64("seed", 1, "workload trace seed (arrivals derive their own stream from it)")
		requests = flag.Int("requests", 6000, "synthetic requests to serve")
		gap      = flag.Float64("gap", 26000, "mean interarrival gap (cycles)")
		ratewalk = flag.Float64("ratewalk", 0, "per-request std-dev of the arrival-rate random walk (0 = stationary)")
		slo      = flag.Int64("slo", 4_000_000, "per-request deadline from arrival (cycles, 0 = none)")
		maxBatch = flag.Int("maxbatch", 32, "batch-size cap (samples); also the graph's max batch")
		maxWait  = flag.Int64("maxwait", 0, "queue-wait deadline of the oldest request (cycles, 0 = slo/4)")
		queueCap = flag.Int("queuecap", 0, "admission queue bound (samples, 0 = 8x maxbatch)")
		resched  = flag.Bool("reschedule", true, "drift-triggered re-scheduling")
		thresh   = flag.Float64("threshold", 0.02, "profile divergence triggering a re-schedule")
		check    = flag.Int("check", 8, "drift-check cadence (batches)")
		cooldown = flag.Int("cooldown", 40, "min batches between re-schedules")
		warmup   = flag.Int("warmup", 40, "warmup batches profiled before the initial schedule")
		replay   = flag.String("replay", "", "serve a recorded trace file instead of synthetic arrivals")
		tenants  = flag.String("tenants", "", "multi-tenant spec, e.g. 'moe:slo=5M:gap=30k,skipnet:slo=8M' (see internal/mtserve)")
		mtMode   = flag.String("mt-mode", "repartition", "multi-tenant sharing discipline: static, timeslice, repartition")
		minTiles = flag.Int("mintiles", 0, "smallest partition the multi-tenant controller shrinks a tenant to (0 = default)")
		starve   = flag.Float64("starve", 0, "queue-pressure spread marking cross-tenant starvation (0 = default)")
		faultArg = flag.String("faults", "", "fault schedule: a spec string (kind@cycles:k=v,...) or a JSON file")
		pcOn     = flag.Bool("plancache", false, "plan-variant cache: dispatch cached plans on re-schedule instead of solving fresh")
		pcNear   = flag.Bool("plancache-nearest", true, "allow nearest-profile cache hits within -plancache-maxdist")
		pcAOT    = flag.Bool("plancache-aot", true, "pre-solve each degraded config the fault schedule will produce at bring-up")
		pcDist   = flag.Float64("plancache-maxdist", 0, "max quantized-profile distance for a nearest hit (0 = default)")
		hostCyc  = flag.Int64("hostresched", 0, "host solve latency charged into virtual time per plan-cache miss (cycles)")
		pipeline = flag.Int("pipeline", 0, "batch pipeline depth: overlap up to N batches on the machine (0 = default 1: retire each batch before the next forms)")
		simpar   = flag.Int("simpar", 1, "fleet mode: worker goroutines stepping replicas concurrently (results byte-identical at any count)")
		fleetN   = flag.Int("fleet", 0, "serve across N identical replicas behind a router (0 = single server)")
		fleetRep = flag.String("fleet-replicas", "", "heterogeneous fleet spec, e.g. 'big:tiles=12x12,edge:tiles=4x4:count=2' (see internal/fleet)")
		route    = flag.String("route", "affinity", "fleet routing policy: rr, jsq, affinity")
		fleetFlt = flag.String("fleet-faults", "", "replica-level fault schedule (tile indices name replicas): spec string or JSON file")
		fleetCls = flag.Int("fleet-classes", 3, "traffic classes in the fleet's drifting arrival mix")
		fleetMin = flag.Int("fleet-min", 0, "elastic scaling: start with this many active replicas (0 = all, no scaling)")
		fleetSD  = flag.Float64("fleet-walk", 0.1, "per-request random-walk std-dev of the fleet's class mixture weights")
		densWalk = flag.Float64("denswalk", 0, "override the model's density source: per-batch std-dev of a density random walk (density-aware models, 0 = model default)")
		densCtr  = flag.Float64("denscenter", 0.5, "starting density of the -denswalk walk, in (0,1]")
		densTr   = flag.String("densities", "", "explicit per-batch density trace, e.g. '0.9x40,0.2x40' (cycled; overrides -denswalk)")
		compare  = flag.Bool("compare", false, "run twice (rescheduling on and off) and report both")
		traceOut = flag.String("trace", "", "write a Chrome-trace/Perfetto JSON timeline of the run to this file")
		statsOut = flag.String("stats-json", "", "write the final counters/gauges snapshot as JSON to this file ('-' for stdout)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first positional argument, so every flag after
		// it would be dropped silently.
		fmt.Fprintf(os.Stderr, "serve: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := checkNumericFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}

	d, err := core.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	wrapGen, err := densityWrap(*densTr, *densWalk, *densCtr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if *tenants != "" {
		if *replay != "" || *statsOut != "" {
			fmt.Fprintln(os.Stderr, "serve: -replay and -stats-json are single-tenant only (drop -tenants)")
			os.Exit(1)
		}
		if *pipeline > 1 {
			fmt.Fprintln(os.Stderr, "serve: -pipeline is single-tenant only (the multi-tenant scheduler drains between slices)")
			os.Exit(1)
		}
		// -threshold/-check/-cooldown defaults are tuned for the single-tenant
		// server; pass them through only when set so mtserve keeps its own.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		mcfg := mtserve.Config{
			Design:            d,
			RC:                core.DefaultRunConfig(),
			MaxBatch:          *maxBatch,
			QueueCapSamples:   *queueCap,
			MinTiles:          *minTiles,
			StarvePressure:    *starve,
			PlanCache:         *pcOn,
			PlanCacheNearest:  *pcNear,
			PlanCacheMaxDist:  *pcDist,
			PlanCacheAOT:      *pcAOT,
			HostReschedCycles: *hostCyc,
		}
		if set["threshold"] {
			mcfg.DriftThreshold = *thresh
		}
		if set["check"] {
			mcfg.CheckEvery = *check
		}
		if set["cooldown"] {
			mcfg.CooldownBatches = *cooldown
		}
		mcfg.RC.Batch = *maxBatch
		mcfg.RC.Warmup = *warmup
		mcfg.RC.Seed = *seed
		mcfg.RC.WrapGen = wrapGen
		if *faultArg != "" {
			fs, err := loadFaults(*faultArg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				os.Exit(1)
			}
			mcfg.Faults = fs
		}
		if *traceOut != "" {
			mcfg.RC.Trace = telemetry.NewTrace()
		}
		def := mtserve.Tenant{
			SLOCycles:     *slo,
			MaxWaitCycles: *maxWait,
			MeanGapCycles: *gap,
			Requests:      *requests,
			RateWalkSD:    *ratewalk,
		}
		if err := runTenants(os.Stdout, mcfg, *tenants, *mtMode, def, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if *traceOut != "" {
			if err := mcfg.RC.Trace.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				os.Exit(1)
			}
		}
		return
	}
	cfg := serve.Config{
		Model:             *model,
		Design:            d,
		RC:                core.DefaultRunConfig(),
		MaxBatch:          *maxBatch,
		MaxWaitCycles:     *maxWait,
		SLOCycles:         *slo,
		QueueCapSamples:   *queueCap,
		PipelineDepth:     *pipeline,
		Reschedule:        *resched,
		DriftThreshold:    *thresh,
		CheckEvery:        *check,
		CooldownBatches:   *cooldown,
		PlanCache:         *pcOn,
		PlanCacheNearest:  *pcNear,
		PlanCacheMaxDist:  *pcDist,
		PlanCacheAOT:      *pcAOT,
		HostReschedCycles: *hostCyc,
	}
	cfg.RC.Batch = *maxBatch
	cfg.RC.Warmup = *warmup
	cfg.RC.Seed = *seed
	cfg.RC.WrapGen = wrapGen

	if *faultArg != "" {
		fs, err := loadFaults(*faultArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		cfg.Faults = fs
	}

	if *traceOut != "" {
		cfg.RC.Trace = telemetry.NewTrace()
	}
	fo := fleetOpts{
		n:        *fleetN,
		replicas: *fleetRep,
		route:    *route,
		faultArg: *fleetFlt,
		classes:  *fleetCls,
		scaleMin: *fleetMin,
		walkSD:   *fleetSD,
		workers:  *simpar,
	}
	if !fo.enabled() && *simpar > 1 {
		fmt.Fprintln(os.Stderr, "serve: -simpar needs a fleet (-fleet or -fleet-replicas); a single simulation has no concurrent replicas")
		os.Exit(1)
	}
	if fo.enabled() {
		if err := validateFleetFlags(fo, *replay, *tenants); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if err := runFleet(os.Stdout, cfg, fo, *requests, *gap, *seed, *compare, *statsOut); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if *traceOut != "" {
			if err := cfg.RC.Trace.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(os.Stdout, cfg, *replay, *requests, *gap, *ratewalk, *seed, *compare, *statsOut); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := cfg.RC.Trace.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}
}

// writeStats renders snapshots as JSON to path ('-' for stdout). A single
// run writes its snapshot object; -compare writes both keyed by mode.
func writeStats(path string, snaps map[string]serve.Snapshot) error {
	if s, ok := snaps["run"]; ok && len(snaps) == 1 {
		return writeJSON(path, s)
	}
	return writeJSON(path, snaps)
}

// writeJSON renders v as indented JSON to path ('-' for stdout).
func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// loadFaults reads the -faults argument: a path to a JSON schedule when it
// names a readable file, the compact spec syntax otherwise.
func loadFaults(arg string) (*faults.Schedule, error) {
	if f, err := os.Open(arg); err == nil {
		defer f.Close()
		return faults.Load(f)
	}
	if strings.Contains(arg, ".json") {
		return nil, fmt.Errorf("fault schedule file %q not readable", arg)
	}
	return faults.ParseSpec(arg)
}

// densityWrap translates the density flags into the core.RunConfig generator
// hook: an explicit trace (-densities) wins over a walk (-denswalk); with
// neither set the model keeps its own density behaviour (nil hook). The hook
// builds a fresh wrapper per bring-up, so compare runs and multi-tenant
// bring-ups never share walk state.
func densityWrap(trace string, walkSD, center float64) (func(workload.TraceGen) workload.TraceGen, error) {
	if trace != "" {
		ds, err := workload.ParseDensityTrace(trace)
		if err != nil {
			return nil, err
		}
		return func(g workload.TraceGen) workload.TraceGen {
			fd, err := workload.NewFixedDensities(g, ds)
			if err != nil {
				panic(err) // the parser validated the trace
			}
			return fd
		}, nil
	}
	if walkSD > 0 {
		if !(center > 0 && center <= 1) {
			return nil, fmt.Errorf("density center %v outside (0,1]", center)
		}
		return func(g workload.TraceGen) workload.TraceGen {
			return workload.NewDensityWalk(g, center, 0, 1, walkSD)
		}, nil
	}
	return nil, nil
}

// checkNumericFlags rejects a numeric flag set to a negative or non-finite
// value, naming the flag. -seed is exempt: it is an RNG seed, not a
// quantity.
func checkNumericFlags() (err error) {
	flag.VisitAll(func(f *flag.Flag) {
		g, ok := f.Value.(flag.Getter)
		if !ok || err != nil || f.Name == "seed" {
			return
		}
		switch x := g.Get().(type) {
		case int:
			err = hw.CheckNonNegative("-"+f.Name, x)
		case int64:
			err = hw.CheckNonNegative("-"+f.Name, x)
		case float64:
			err = hw.CheckNonNegative("-"+f.Name, x)
		}
	})
	return err
}

// newSource builds the request stream; arrivals use their own deterministic
// seed so the stream is identical across server configurations.
func newSource(replay string, requests int, gap, ratewalk float64, seed int64) (serve.Source, error) {
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rec, err := workload.LoadRecording(f)
		if err != nil {
			return nil, err
		}
		return serve.NewReplay(rec, gap, seed+1)
	}
	var rate *workload.Drift
	if ratewalk > 0 {
		rate = workload.NewDrift(1, 0.25, 2.5, ratewalk)
	}
	return serve.NewSynthetic(requests, gap, seed+1, rate), nil
}

func run(w io.Writer, cfg serve.Config, replay string, requests int, gap, ratewalk float64, seed int64, compare bool, statsOut string) error {
	if replay != "" {
		// The server must be brought up for the recording's model and batch.
		f, err := os.Open(replay)
		if err != nil {
			return err
		}
		rec, err := workload.LoadRecording(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Model = rec.Model
		cfg.RC.Batch = rec.BatchSamples
		cfg.MaxBatch = rec.BatchSamples
	}
	if !compare {
		srv, rep, err := serveOnce(cfg, replay, requests, gap, ratewalk, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep)
		if statsOut != "" {
			return writeStats(statsOut, map[string]serve.Snapshot{"run": srv.Snapshot()})
		}
		return nil
	}
	on, off := cfg, cfg
	on.Reschedule = true
	title := "Drift-triggered re-scheduling vs static plan (same arrivals, same seed)"
	adaptive, baseline := "reschedule", "static"
	onName, offName := "adaptive", "static"
	if cfg.PlanCache {
		// With the plan cache on, the interesting baseline is not a frozen
		// plan but the same adaptive policy paying a fresh solve per trigger.
		off.Reschedule = true
		off.PlanCache = false
		title = "Plan-cache dispatch vs fresh-solve re-scheduling (same arrivals, same seed)"
		adaptive, baseline = "cached", "fresh"
		onName, offName = "cached", "fresh"
	} else {
		off.Reschedule = false
		if !cfg.Faults.Empty() {
			title = "Fault-aware re-scheduling vs frozen plan (same arrivals, same faults, same seed)"
			adaptive = "fault-aware"
		}
	}
	// The two runs share a design/model pair; explicit trace names keep their
	// recorders apart in the merged -trace file.
	on.RC.TraceName = string(cfg.Design) + "/" + cfg.Model + "/" + onName
	off.RC.TraceName = string(cfg.Design) + "/" + cfg.Model + "/" + offName
	srvOn, repOn, err := serveOnce(on, replay, requests, gap, ratewalk, seed)
	if err != nil {
		return err
	}
	srvOff, repOff, err := serveOnce(off, replay, requests, gap, ratewalk, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, repOn)
	fmt.Fprintln(w, repOff)
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"Metric", adaptive, baseline, "improvement"},
	}
	t.AddRow("p50 latency", metrics.F(repOn.Latency.P50, 0), metrics.F(repOff.Latency.P50, 0), metrics.Gain(repOn.Latency.P50, repOff.Latency.P50))
	t.AddRow("p99 latency", metrics.F(repOn.Latency.P99, 0), metrics.F(repOff.Latency.P99, 0), metrics.Gain(repOn.Latency.P99, repOff.Latency.P99))
	t.AddRow("shed rate", metrics.F(repOn.ShedRate()*100, 1)+"%", metrics.F(repOff.ShedRate()*100, 1)+"%", metrics.Gain(repOn.ShedRate(), repOff.ShedRate()))
	t.AddRow("miss rate", metrics.F(repOn.MissRate()*100, 1)+"%", metrics.F(repOff.MissRate()*100, 1)+"%", metrics.Gain(repOn.MissRate(), repOff.MissRate()))
	t.AddRow("deadline-missed", fmt.Sprint(repOn.Missed), fmt.Sprint(repOff.Missed), "")
	t.AddRow("reschedules", fmt.Sprint(repOn.Reschedules), fmt.Sprint(repOff.Reschedules), "")
	if !cfg.Faults.Empty() {
		t.AddRow("health reschedules", fmt.Sprint(repOn.HealthReschedules), fmt.Sprint(repOff.HealthReschedules), "")
	}
	if cfg.PlanCache {
		t.AddRow("plan-cache hits", fmt.Sprint(repOn.PlanCacheExact+repOn.PlanCacheNearest), "0", "")
		t.AddRow("host solve cycles", fmt.Sprint(repOn.HostSolveCycles), fmt.Sprint(repOff.HostSolveCycles), "")
	}
	fmt.Fprintln(w, t)
	if statsOut != "" {
		return writeStats(statsOut, map[string]serve.Snapshot{
			onName: srvOn.Snapshot(), offName: srvOff.Snapshot(),
		})
	}
	return nil
}

// runTenants is the multi-tenant entry point: one sharing discipline, or
// all three on identical arrival streams under -compare.
func runTenants(w io.Writer, cfg mtserve.Config, spec, mode string, def mtserve.Tenant, compare bool) error {
	tens, err := mtserve.ParseSpec(spec, def)
	if err != nil {
		return err
	}
	if !compare {
		m, err := mtserve.ParseMode(mode)
		if err != nil {
			return err
		}
		cfg.Mode = m
		cfg.Tenants = tens
		rep, err := mtServeOnce(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep)
		return nil
	}
	modes := []mtserve.Mode{mtserve.ModeStatic, mtserve.ModeTimeSlice, mtserve.ModeRepartition}
	reps := make([]*mtserve.Report, len(modes))
	for i, m := range modes {
		c := cfg
		c.Mode = m
		// Per-tenant seeds derive from the spec index, so every mode sees the
		// same arrival streams; distinct trace names keep the three runs'
		// recorders apart in a shared -trace file. New mutates tenant specs
		// (naming, defaults), so each run gets its own copy.
		c.RC.TraceName = "mt/" + m.String()
		c.Tenants = append([]mtserve.Tenant(nil), tens...)
		rep, err := mtServeOnce(c)
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		reps[i] = rep
		fmt.Fprintln(w, rep)
	}
	fmt.Fprintln(w, mtCompareTable(reps[0], reps[1], reps[2], !cfg.Faults.Empty()))
	return nil
}

// mtCompareTable renders the three sharing disciplines side by side, with
// the re-partitioning controller's gain over each baseline as a ratio.
func mtCompareTable(st, sl, re *mtserve.Report, faulty bool) *metrics.Table {
	t := &metrics.Table{
		Title:   "Chip sharing disciplines (same tenants, same arrivals, same seed)",
		Columns: []string{"Metric", "static", "timeslice", "repartition", "vs static", "vs slice"},
	}
	t.AddRow("p50 latency", metrics.F(st.Latency.P50, 0), metrics.F(sl.Latency.P50, 0), metrics.F(re.Latency.P50, 0),
		metrics.Gain(re.Latency.P50, st.Latency.P50), metrics.Gain(re.Latency.P50, sl.Latency.P50))
	t.AddRow("p99 latency", metrics.F(st.Latency.P99, 0), metrics.F(sl.Latency.P99, 0), metrics.F(re.Latency.P99, 0),
		metrics.Gain(re.Latency.P99, st.Latency.P99), metrics.Gain(re.Latency.P99, sl.Latency.P99))
	t.AddRow("mean latency", metrics.F(st.Latency.Mean, 0), metrics.F(sl.Latency.Mean, 0), metrics.F(re.Latency.Mean, 0),
		metrics.Gain(re.Latency.Mean, st.Latency.Mean), metrics.Gain(re.Latency.Mean, sl.Latency.Mean))
	t.AddRow("shed", fmt.Sprint(st.Shed), fmt.Sprint(sl.Shed), fmt.Sprint(re.Shed), "", "")
	t.AddRow("deadline-missed", fmt.Sprint(st.Missed), fmt.Sprint(sl.Missed), fmt.Sprint(re.Missed), "", "")
	t.AddRow("repartitions", fmt.Sprint(st.Repartitions), fmt.Sprint(sl.Repartitions), fmt.Sprint(re.Repartitions), "", "")
	t.AddRow("reschedules", fmt.Sprint(st.Reschedules), fmt.Sprint(sl.Reschedules), fmt.Sprint(re.Reschedules), "", "")
	t.AddRow("reconfig cycles", fmt.Sprint(st.ReconfigCycles), fmt.Sprint(sl.ReconfigCycles), fmt.Sprint(re.ReconfigCycles), "", "")
	if faulty {
		t.AddRow("fault events", fmt.Sprint(st.FaultEvents), fmt.Sprint(sl.FaultEvents), fmt.Sprint(re.FaultEvents), "", "")
	}
	return t
}

func mtServeOnce(cfg mtserve.Config) (*mtserve.Report, error) {
	s, err := mtserve.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Serve()
}

func serveOnce(cfg serve.Config, replay string, requests int, gap, ratewalk float64, seed int64) (*serve.Server, *serve.Report, error) {
	src, err := newSource(replay, requests, gap, ratewalk, seed)
	if err != nil {
		return nil, nil, err
	}
	s, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := s.Serve(src)
	if err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}
