// Command adyna runs one DynNN workload on one design and prints a run
// summary: throughput, utilizations, traffic, and the energy breakdown.
//
// Usage:
//
//	adyna -model skipnet -design adyna
//	adyna -model dpsnet -design mtile -batch 64 -batches 100
//	adyna -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	var (
		model   = flag.String("model", "skipnet", "workload model (see -list)")
		design  = flag.String("design", "adyna", "machine design: gpu, mtile, mtenant, static, full, adyna, realtime")
		batch   = flag.Int("batch", models.DefaultBatchSize, "batch size (samples)")
		batches = flag.Int("batches", 80, "measured batches")
		seed    = flag.Int64("seed", 1, "workload trace seed")
		list    = flag.Bool("list", false, "list workloads and designs, then exit")
		chipmap = flag.Bool("map", false, "print the scheduled chip map for each segment and exit")
		roof    = flag.Bool("roofline", false, "print the model's roofline analysis and exit")
		density = flag.Float64("density", 0, "fixed density dyn-value in (0,1] for every batch (density-aware models; 0 = model default)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first positional argument, so every flag after
		// it would be dropped silently.
		fmt.Fprintf(os.Stderr, "adyna: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}

	if *list {
		fmt.Println("workloads:", strings.Join(models.Names(), ", "), "(plus: adavit, ranet, gcn)")
		fmt.Println("designs:   gpu, mtile, mtenant, static, full, adyna, realtime")
		return
	}

	d, err := core.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adyna:", err)
		os.Exit(1)
	}
	rc := core.DefaultRunConfig()
	rc.Batch = *batch
	rc.Batches = *batches
	rc.Seed = *seed
	if *density != 0 {
		if !(*density > 0 && *density <= 1) { // NaN fails both
			fmt.Fprintf(os.Stderr, "adyna: -density %v outside (0,1]\n", *density)
			os.Exit(1)
		}
		dens := []float64{*density}
		rc.WrapGen = func(g workload.TraceGen) workload.TraceGen {
			fd, err := workload.NewFixedDensities(g, dens)
			if err != nil {
				panic(err) // the value was validated above
			}
			return fd
		}
	}

	if *chipmap {
		if err := printChipMap(*model, rc); err != nil {
			fmt.Fprintln(os.Stderr, "adyna:", err)
			os.Exit(1)
		}
		return
	}
	if *roof {
		if err := printRoofline(*model, rc, *density); err != nil {
			fmt.Fprintln(os.Stderr, "adyna:", err)
			os.Exit(1)
		}
		return
	}

	r, err := core.Run(d, *model, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adyna:", err)
		os.Exit(1)
	}

	cpb := r.CyclesPerBatch()
	ms := cpb / (rc.HW.ClockGHz * 1e6)
	fmt.Printf("%s on %s (batch %d, %d batches, seed %d)\n", r.Design, r.Model, rc.Batch, rc.Batches, rc.Seed)
	fmt.Printf("  latency        %.0f cycles/batch (%.3f ms at %.0f GHz)\n", cpb, ms, rc.HW.ClockGHz)
	fmt.Printf("  throughput     %.0f samples/s\n", float64(rc.Batch)/(ms/1e3))
	fmt.Printf("  PE utilization %.1f%%   memory BW utilization %.1f%%\n", r.PEUtil*100, r.HBMUtil*100)
	fmt.Printf("  MACs/batch     %.3g issued (%.3g useful, %.1f%% padding waste)\n",
		float64(r.MACs)/float64(r.Batches), float64(r.UsefulMACs)/float64(r.Batches),
		100*(float64(r.MACs)/float64(r.UsefulMACs)-1))
	fmt.Printf("  HBM traffic    %.3g bytes/batch\n", float64(r.HBMBytes)/float64(r.Batches))
	if r.ReconfigCycles > 0 {
		fmt.Printf("  reconfig       %.2f%% of runtime\n", 100*float64(r.ReconfigCycles)/float64(r.Cycles))
	}
	br := energy.Of(energy.Counters{
		MACs: r.MACs, SRAMBytes: r.SRAMBytes, HBMBytes: r.HBMBytes, NoCByteHops: r.NoCByteHops,
	})
	n := float64(r.Batches)
	fmt.Printf("  energy/batch   %.2f mJ (HBM %.2f, SRAM %.2f, PE+NoC %.2f)\n",
		br.Total()/n, br.HBMmJ/n, br.SRAMmJ/n, br.PEmJ/n)
	// The analytic baselines have no pipeline to measure.
	if d == core.DesignGPU || d == core.DesignMTenant {
		return
	}
	lats, err := core.BatchLatencies(d, *model, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adyna:", err)
		os.Exit(1)
	}
	if len(lats) > 0 {
		fmt.Printf("  batch latency  p50 %.0f  p95 %.0f  p99 %.0f cycles (window-relative)\n",
			metrics.Percentile(lats, 0.50), metrics.Percentile(lats, 0.95), metrics.Percentile(lats, 0.99))
	}
}

// printChipMap schedules the model under the full Adyna policy and renders
// every segment's tile placement.
func printChipMap(model string, rc core.RunConfig) error {
	w, err := models.ByName(model, rc.Batch)
	if err != nil {
		return err
	}
	if rc.WrapGen != nil {
		w.Gen = rc.WrapGen(w.Gen)
	}
	m, err := accel.New(rc.HW, w.Graph, accel.Options{})
	if err != nil {
		return err
	}
	src := workload.NewSource(rc.Seed)
	var units []int
	for _, b := range w.GenTrace(src, rc.Warmup, rc.Batch) {
		if units, err = w.Graph.AssignUnits(units, b.Units, b.Routing); err != nil {
			return err
		}
		if err := m.Profiler().ObserveBatch(units, b.Routing, b.Density); err != nil {
			return err
		}
	}
	plan, err := sched.Schedule(rc.HW, w.Graph, sched.Adyna(), m.Profiler())
	if err != nil {
		return err
	}
	for i := range plan.Segments {
		s, err := plan.ChipMap(rc.HW, w.Graph, i)
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	return nil
}

// printRoofline classifies every compute operator of the model as compute-
// or memory-bound at the worst-case dyn values; a density in (0,1) rescales
// density-aware operators (sparse compute shrinks, dense outputs and weights
// stay), shifting them toward the memory-bound side of the ridge.
func printRoofline(model string, rc core.RunConfig, density float64) error {
	w, err := models.ByName(model, rc.Batch)
	if err != nil {
		return err
	}
	as := costmodel.Roofline(rc.HW, w.Graph, nil)
	if density > 0 && density < 1 {
		as = costmodel.DensityRoofline(rc.HW, w.Graph, nil, density)
	}
	share, total := costmodel.RooflineSummary(as)
	fmt.Printf("%s roofline at batch %d (ridge point %.0f FLOP/byte):\n",
		w.Name, rc.Batch, costmodel.RidgePoint(rc.HW))
	if density > 0 && density < 1 {
		fmt.Printf("density-aware operators rescaled to density %.2f\n", density)
	}
	fmt.Printf("%-18s %12s %12s %12s %s\n", "operator", "GFLOPs", "MBytes", "FLOP/byte", "bound")
	for _, a := range as {
		if a.FLOPs < total/200 {
			continue // skip trivia
		}
		bound := "memory"
		if a.ComputeBound {
			bound = "compute"
		}
		fmt.Printf("%-18s %12.2f %12.2f %12.0f %s\n",
			a.Name, float64(a.FLOPs)/1e9, float64(a.Bytes)/1e6, a.Intensity, bound)
	}
	fmt.Printf("%.0f%% of worst-case FLOPs sit in compute-bound operators (%.1f TFLOPs/batch total)\n",
		share*100, float64(total)/1e12)
	return nil
}
