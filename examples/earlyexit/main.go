// Early-exit serving: run the PABEE early-exiting BERT workload across all
// accelerator designs under the same trace and compare latency, utilization
// and energy — the memory-bound NLP case of the paper's evaluation, where
// M-tenant's lack of inter-operator pipelining hurts most.
package main

import (
	"fmt"
	"log"

	"repro/adyna"
)

func main() {
	rc := adyna.DefaultRunConfig()
	rc.Batch = 64
	rc.Batches = 60
	rc.Warmup = 20

	designs := []adyna.Design{
		adyna.DesignGPU, adyna.DesignMTile, adyna.DesignMTenant,
		adyna.DesignAdynaStatic, adyna.DesignAdyna,
	}
	results, err := adyna.RunAll(designs, "pabee", rc)
	if err != nil {
		log.Fatal(err)
	}

	base := results[adyna.DesignMTile]
	fmt.Printf("PABEE (BERT-base early exit), batch %d, %d batches:\n\n", rc.Batch, rc.Batches)
	fmt.Printf("%-15s %14s %9s %8s %8s %12s\n", "design", "cycles/batch", "speedup", "PE util", "BW util", "energy (mJ)")
	for _, d := range designs {
		r := results[d]
		e := adyna.EnergyOf(r)
		fmt.Printf("%-15s %14.0f %8.2fx %7.1f%% %7.1f%% %12.1f\n",
			string(d), r.CyclesPerBatch(), r.SpeedupOver(base),
			r.PEUtil*100, r.HBMUtil*100, e.Total()/float64(r.Batches))
	}

	// Show what the samples actually did: the exit-layer distribution of the
	// generated trace.
	w, err := adyna.LoadModel("pabee", rc.Batch)
	if err != nil {
		log.Fatal(err)
	}
	src := adyna.NewSource(rc.Seed)
	trace := w.GenTrace(src, 40, rc.Batch)
	exits := make([]int, 13)
	for _, b := range trace {
		alive := rc.Batch
		for l, r := range b.Routing {
			exits[l+1] += len(r.Branch[0])
			alive = len(r.Branch[1])
		}
		exits[12] += alive
	}
	fmt.Printf("\nexit-layer distribution over %d samples:\n", 40*rc.Batch)
	total := 40 * rc.Batch
	for l := 1; l <= 12; l++ {
		bar := ""
		frac := float64(exits[l]) / float64(total)
		for i := 0; i < int(frac*200); i++ {
			bar += "#"
		}
		fmt.Printf("  layer %2d: %5.1f%% %s\n", l, frac*100, bar)
	}
	fmt.Println("\nEarly exits shrink the deeper layers' dyn values; Adyna's multi-kernel")
	fmt.Println("selection sizes each layer's kernels to the surviving population instead")
	fmt.Println("of the worst case.")
}
