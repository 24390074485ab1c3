// Quickstart: define a custom dynamic neural network with the switch/merge
// operators of Adyna's unified representation, verify functionally that
// dynamic routing is lossless, then schedule it and simulate it on the
// Adyna accelerator against the static M-tile baseline.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/adyna"
)

func main() {
	if err := run(os.Stdout, 30); err != nil {
		log.Fatal(err)
	}
}

// run executes the whole walkthrough, simulating nBatches trace batches in
// step 3 (the demo uses 30; tests shrink it).
func run(w io.Writer, nBatches int) error {
	// 1. Build a small layer-skipping network: a gate decides per sample
	//    whether to run one conv (cheap path) or two convs (full path).
	const batch = 32
	b := adyna.NewGraphBuilder("demo-skipblock", 1)
	cs := adyna.ConvSpec{InC: 32, OutC: 32, H: 16, W: 16, R: 3, S: 3, Stride: 1, Pad: 1}
	in := b.Input("images", int64(32*16*16*2), batch)
	gate := b.Gate("gate", in, 32, 2)
	branches := b.Switch("route", in, gate, 2)
	cheap := b.Conv2D("cheap_conv", branches[0], cs)
	full1 := b.Conv2D("full_conv1", branches[1], cs)
	full2 := b.Conv2D("full_conv2", full1, cs)
	merged := b.Merge("merge", branches, cheap, full2)
	logits := b.MatMul("classifier", merged, 32*16*16, 10)
	b.Output("predictions", logits)

	// Attach tiny reference implementations so the graph can execute on
	// real tensors (scaling stands in for the convolutions).
	scale := func(f float32) func([]*adyna.Tensor) (*adyna.Tensor, error) {
		return func(ins []*adyna.Tensor) (*adyna.Tensor, error) {
			out := ins[0].Clone()
			for i := range out.Data {
				out.Data[i] *= f
			}
			return out, nil
		}
	}
	b.SetRef(gate, scale(1))
	b.SetRef(cheap, scale(-1)) // cheap path negates
	b.SetRef(full1, scale(2))  // full path quadruples
	b.SetRef(full2, scale(2))
	b.SetRef(logits, scale(1))

	g, err := b.Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "built %q: %d operators, %d switches, worst case %.2f GMACs/batch\n",
		g.Name, len(g.Ops), len(g.Switches()), float64(g.MaxMACsPerBatch())/1e9)

	// 2. Route a batch: even samples take the cheap path, odd ones the full
	//    path — and verify functionally that every sample comes out with
	//    exactly its own branch's transformation.
	var cheapIdx, fullIdx []int32
	for i := range int32(batch) {
		if i%2 == 0 {
			cheapIdx = append(cheapIdx, i)
		} else {
			fullIdx = append(fullIdx, i)
		}
	}
	rt := adyna.BatchRouting{{Branch: [][]int32{cheapIdx, fullIdx}}} // g's one switch
	input := adyna.NewTensor(batch, 32*16*16)
	for i := range input.Data {
		input.Data[i] = 1
	}
	res, err := g.Execute(input, rt)
	if err != nil {
		return err
	}
	out := res.Outputs[g.Outputs()[0]]
	fmt.Fprintf(w, "functional check: sample 0 (cheap) -> %v, sample 1 (full) -> %v\n",
		out.At(0, 0), out.At(1, 0))
	if out.At(0, 0) != -1 || out.At(1, 0) != 4 {
		return fmt.Errorf("routing was not lossless: got %v and %v", out.At(0, 0), out.At(1, 0))
	}

	// 3. Schedule and simulate: Adyna's multi-kernel plan vs the worst-case
	//    static M-tile plan, over the same randomly routed trace.
	cfg := adyna.DefaultConfig()
	wk, err := adyna.LoadModel("skipnet", 64)
	if err != nil {
		return err
	}
	src := adyna.NewSource(42)
	trace := wk.GenTrace(src, nBatches, 64)
	warm := len(trace) / 3

	runPlan := func(pol adyna.Policy) (int64, error) {
		m, err := adyna.NewMachine(cfg, wk.Graph, adyna.MachineOptions{})
		if err != nil {
			return 0, err
		}
		// Warm the profiler so frequency-weighted allocation has data.
		var units []int
		for _, b := range trace[:warm] {
			if units, err = wk.Graph.AssignUnits(units, b.Units, b.Routing); err != nil {
				return 0, err
			}
			if err := m.Profiler().ObserveBatch(units, b.Routing, b.Density); err != nil {
				return 0, err
			}
		}
		plan, err := adyna.Schedule(cfg, wk.Graph, pol, m.Profiler())
		if err != nil {
			return 0, err
		}
		if err := m.LoadPlan(plan); err != nil {
			return 0, err
		}
		if err := m.Run(trace[warm:]); err != nil {
			return 0, err
		}
		return m.Stats().Cycles, nil
	}
	mtile, err := runPlan(adyna.PolicyMTile())
	if err != nil {
		return err
	}
	ad, err := runPlan(adyna.PolicyAdyna())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated SkipNet (batch 64, %d batches): M-tile %d cycles, Adyna %d cycles -> %.2fx speedup\n",
		len(trace)-warm, mtile, ad, float64(mtile)/float64(ad))
	return nil
}
