// Command trace generates, inspects, and replays DynNN routing traces.
//
// Usage:
//
//	trace -model skipnet -batches 40 -out trace.json     # record a trace
//	trace -stats trace.json                              # inspect a recording
//	trace -model dpsnet -batches 20 -stats -             # generate + inspect
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/models"
	"repro/internal/workload"
)

func main() {
	var (
		model   = flag.String("model", "skipnet", "workload model to record (see adyna -list)")
		batch   = flag.Int("batch", models.DefaultBatchSize, "batch size (samples)")
		batches = flag.Int("batches", 40, "number of batches to record")
		seed    = flag.Int64("seed", 1, "workload trace seed")
		out     = flag.String("out", "", "write the recording to this file")
		stats   = flag.String("stats", "", "print statistics of a recorded trace file, or '-' to inspect the generated trace")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first positional argument, so every flag after
		// it would be dropped silently.
		fmt.Fprintf(os.Stderr, "trace: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(*model, *batch, *batches, *seed, *out, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func run(model string, batch, nBatches int, seed int64, out, stats string) error {
	var (
		rec *workload.Recording
		w   *models.Workload
		err error
	)
	switch {
	case stats != "" && stats != "-":
		f, err := os.Open(stats)
		if err != nil {
			return err
		}
		defer f.Close()
		rec, err = workload.LoadRecording(f)
		if err != nil {
			return err
		}
		w, err = models.ByName(rec.Model, rec.BatchSamples)
		if err != nil {
			return err
		}
	default:
		w, err = models.ByName(model, batch)
		if err != nil {
			return err
		}
		src := workload.NewSource(seed)
		tr := w.GenTrace(src, nBatches, batch)
		if err := workload.Validate(w.Graph, tr, w.Exclusive); err != nil {
			return err
		}
		rec = workload.Record(model, batch, seed, tr)
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Save(f); err != nil {
			return err
		}
		fmt.Printf("recorded %d batches of %s (batch %d, seed %d) to %s\n",
			len(rec.Batches), rec.Model, rec.BatchSamples, rec.Seed, out)
	}

	if stats != "" {
		tr, err := rec.Replay()
		if err != nil {
			return err
		}
		sts, err := workload.Stats(w.Graph, tr)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d batches, %d units/batch, %d switches\n\n",
			rec.Model, len(tr), w.BatchUnits(rec.BatchSamples), len(sts))
		for _, st := range sts {
			op := w.Graph.Op(st.Switch)
			fmt.Printf("switch %-12s arrived %.1f units/batch\n", op.Name, st.MeanArrived)
			for k := range st.BranchMean {
				fmt.Printf("  branch %d: mean %.1f units, active %.0f%% of batches\n",
					k, st.BranchMean[k], st.BranchActive[k]*100)
			}
		}
	}
	if out == "" && stats == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -stats")
	}
	return nil
}
