// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section IX). Each experiment prints the same rows/series the
// paper reports, computed from the simulator.
//
// Usage:
//
//	experiments -exp all                 # everything (slow)
//	experiments -exp fig9                # one experiment
//	experiments -exp fig9 -quick         # reduced scale
//	experiments -exp fig13 -batches 100  # override trace length
//	experiments -exp fig9 -workers 1     # force the sequential path
//	experiments -exp fig9 -quick -trace out.json  # Perfetto timeline of every run
//
// Independent simulations fan out across all CPUs by default (the results
// are bit-identical to a sequential run; see internal/runner).
//
// Experiments: table3, table4, fig6, fig9, fig10, fig11, fig12, fig13,
// reconfig, budget, sampling, hybrid, dse, latency, simpar, all. Any other
// name is an error.
//
// simpar measures the parallel engine: the same fleet scenario stepped
// sequentially and concurrently (byte-identity checked, wall-clock timed)
// and a single-server burst with and without batch pipelining.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run ("+strings.Join(experimentNames, ",")+")")
		quick    = flag.Bool("quick", false, "reduced scale for a fast pass")
		batches  = flag.Int("batches", 0, "override measured batches")
		batch    = flag.Int("batch", 0, "override batch size (samples)")
		seed     = flag.Int64("seed", 1, "workload trace seed")
		workers  = flag.Int("workers", 0, "worker pool size (0 = one per CPU, 1 = sequential; results are identical either way)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut = flag.String("trace", "", "write a Chrome-trace/Perfetto JSON timeline of every simulation to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first positional argument, so every flag after
		// it would be dropped silently.
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"batches", *batches}, {"batch", *batch}, {"workers", *workers}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "experiments: -%s must not be negative, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}
	if *batches > 0 {
		opt.RC.Batches = *batches
	}
	if *batch > 0 {
		opt.RC.Batch = *batch
	}
	opt.RC.Seed = *seed
	opt.Workers = *workers
	if *traceOut != "" {
		opt.RC.Trace = telemetry.NewTrace()
	}

	if err := run(strings.ToLower(*exp), opt); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		// Flush the profiles before the non-deferred exit.
		if *cpuprof != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := opt.RC.Trace.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// experimentNames lists every name run accepts.
var experimentNames = []string{"table3", "table4", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13",
	"reconfig", "budget", "sampling", "hybrid", "dse", "latency", "simpar", "all"}

func run(exp string, opt experiments.Options) error {
	if !slices.Contains(experimentNames, exp) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, strings.Join(experimentNames, ", "))
	}
	want := func(name string) bool { return exp == "all" || exp == name }
	start := time.Now()

	if want("table3") {
		fmt.Println(experiments.Table3(opt.RC.HW))
	}
	if want("table4") {
		fmt.Println(experiments.Table4(opt.RC.HW))
	}
	if want("fig6") {
		fig := experiments.Figure6(opt.RC.Seed, 60)
		fmt.Println(fig)
		st, fr, sh := experiments.Figure6Imbalance(fig)
		fmt.Printf("mean per-batch max workload/tile: static=%.2f  freq-weighted=%.2f  +tile-sharing=%.2f\n\n",
			st, fr, sh)
	}

	var m *experiments.Matrix
	needMatrix := want("fig9") || want("fig10") || want("fig11")
	if needMatrix {
		var err error
		m, err = experiments.RunMatrix(opt)
		if err != nil {
			return err
		}
	}
	if want("fig9") {
		fmt.Println(experiments.Figure9(m))
		h := experiments.Figure9Headlines(m)
		fmt.Printf("headlines (paper in parentheses):\n")
		fmt.Printf("  Adyna vs M-tile    %.2fx avg (1.70x), %.2fx max (2.32x)\n", h.AdynaVsMTile, h.AdynaVsMTileMax)
		fmt.Printf("  Adyna vs M-tenant  %.2fx avg (1.57x), %.2fx max (2.01x)\n", h.AdynaVsMTenant, h.AdynaVsMTenantMax)
		fmt.Printf("  Adyna(static) vs M-tile  %.2fx (1.41x); runtime adjustment adds %.2fx (1.21x)\n", h.StaticVsMTile, h.RuntimeGain)
		fmt.Printf("  Adyna reaches %.0f%% of full-kernel (87%%)\n", h.AdynaOfFullKernel*100)
		fmt.Printf("  Adyna vs GPU       %.1fx (11.7x)\n", h.AdynaVsGPU)
		fmt.Printf("  M-tenant vs M-tile %.2fx (1.09x)\n\n", h.MTenantVsMTile)
	}
	if want("fig10") {
		fmt.Println(experiments.Figure10(m))
	}
	if want("fig11") {
		fmt.Println(experiments.Figure11(m))
	}
	if want("fig12") {
		fig, crossover, err := experiments.Figure12(opt, nil)
		if err != nil {
			return err
		}
		fmt.Println(fig)
		fmt.Println(fig.Chart(50))
		if crossover == crossover { // not NaN
			fmt.Printf("crossover: real-time scheduling must decide within %.2f us to match Adyna (paper: 390 us)\n\n", crossover)
		} else {
			fmt.Println("no crossover inside the swept range")
		}
	}
	if want("fig13") {
		sizes := []int{1, 4, 16, 64, 128}
		fig, err := experiments.Figure13(opt, sizes)
		if err != nil {
			return err
		}
		fmt.Println(fig)
	}
	if want("reconfig") {
		t, err := experiments.ReconfigSweep(opt, nil)
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if want("budget") {
		fig, err := experiments.KernelBudgetSweep(opt, nil)
		if err != nil {
			return err
		}
		fmt.Println(fig)
	}
	if want("sampling") {
		fmt.Println(experiments.SamplingDemo(opt.RC.Seed))
	}
	if want("latency") {
		t, err := experiments.LatencyTable(opt, "skipnet")
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if want("dse") {
		t, err := experiments.DSESweep(opt, "skipnet")
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if want("hybrid") {
		t, err := experiments.HybridDemo(opt)
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if want("simpar") {
		t, err := experiments.Simpar(opt, runtime.NumCPU(), 4)
		if err != nil {
			return err
		}
		fmt.Println(t)
	}
	if exp == "all" {
		fmt.Printf("(all experiments completed in %.1fs; rc: batch=%d batches=%d seed=%d)\n",
			time.Since(start).Seconds(), opt.RC.Batch, opt.RC.Batches, opt.RC.Seed)
	}
	return nil
}
