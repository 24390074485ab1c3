// Mixture-of-experts load balancing: drive the Tutel-MoE workload, whose
// expert popularity drifts over time, and show how Adyna's periodic
// re-scheduling (frequency-weighted re-allocation plus kernel re-sampling)
// keeps up while a one-shot static schedule decays — the paper's runtime
// adjustment in action.
package main

import (
	"fmt"
	"log"

	"repro/adyna"
)

const (
	batch   = 128
	windows = 5
	perWin  = 40
	warmupN = 40
	seed    = 7
)

func main() {
	cfg := adyna.DefaultConfig()
	w, err := adyna.LoadModel("tutel-moe", batch)
	if err != nil {
		log.Fatal(err)
	}

	// One source drives both runs so they see identical expert routing.
	gen := func() []adyna.Batch {
		src := adyna.NewSource(seed)
		warm := w.GenTrace(src, warmupN, batch)
		meas := w.GenTrace(src, windows*perWin, batch)
		return append(warm, meas...)
	}

	run := func(pol adyna.Policy, resched bool) []float64 {
		wl, err := adyna.LoadModel("tutel-moe", batch) // fresh drift state
		if err != nil {
			log.Fatal(err)
		}
		m, err := adyna.NewMachine(cfg, wl.Graph, adyna.MachineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		trace := gen()
		for _, b := range trace[:warmupN] {
			units, err := wl.Graph.AssignUnits(b.Units, b.Routing)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.Profiler().ObserveBatch(units, b.Routing, b.Density); err != nil {
				log.Fatal(err)
			}
		}
		plan, err := adyna.Schedule(cfg, wl.Graph, pol, m.Profiler())
		if err != nil {
			log.Fatal(err)
		}
		if err := m.LoadPlan(plan); err != nil {
			log.Fatal(err)
		}
		var out []float64
		prev := int64(0)
		for win := 0; win < windows; win++ {
			if win > 0 && resched {
				plan, err = adyna.Schedule(cfg, wl.Graph, pol, m.Profiler())
				if err != nil {
					log.Fatal(err)
				}
				if err := m.LoadPlan(plan); err != nil {
					log.Fatal(err)
				}
				m.Profiler().Reset()
			}
			lo := warmupN + win*perWin
			if err := m.Run(trace[lo : lo+perWin]); err != nil {
				log.Fatal(err)
			}
			c := m.Stats().Cycles
			out = append(out, float64(c-prev)/perWin)
			prev = c
		}
		return out
	}

	static := run(adyna.PolicyAdynaStatic(), false)
	dynamic := run(adyna.PolicyAdyna(), true)

	fmt.Printf("Tutel-MoE (8 experts, top-2, drifting popularity), batch %d:\n\n", batch)
	fmt.Printf("%-8s %18s %18s %10s\n", "window", "static cyc/batch", "adaptive cyc/batch", "gain")
	for i := range static {
		fmt.Printf("%-8d %18.0f %18.0f %9.1f%%\n",
			i+1, static[i], dynamic[i], 100*(static[i]/dynamic[i]-1))
	}
	var s1, s2 float64
	for i := range static {
		s1 += static[i]
		s2 += dynamic[i]
	}
	fmt.Printf("\noverall: adaptive re-scheduling is %.2fx faster as the expert\n", s1/s2)
	fmt.Println("distribution wanders away from the initial profile. (The gain grows")
	fmt.Println("with later windows - the static plan's allocation is increasingly stale.)")
}
