package accel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/workload"
)

// randomGraph generates a structurally valid random DynNN: a chain of
// stages, each either a static operator or a switch with 2-4 branches of
// random depth closed by a merge (or, occasionally, an early-exit sink).
// It returns the graph and the worst-case units.
func randomGraph(rng *rand.Rand, maxUnits int) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("fuzz-%d", rng.Int63()), 1)
	feat := 32 * (1 + rng.Intn(4))
	x := b.Input("in", int64(feat)*2, maxUnits)
	stages := 1 + rng.Intn(4)
	opn := 0
	name := func(s string) string {
		opn++
		return fmt.Sprintf("%s%d", s, opn)
	}
	for st := 0; st < stages; st++ {
		switch rng.Intn(3) {
		case 0: // static matmul
			out := 32 * (1 + rng.Intn(4))
			x = b.MatMul(name("fc"), x, feat, out)
			feat = out
		case 1: // static matmul + fused vector op
			x = b.MatMul(name("fc"), x, feat, feat)
			x = b.Elementwise(name("relu"), int64(feat)*2, x)
		default: // dynamic stage
			nb := 2 + rng.Intn(3)
			gate := b.Gate(name("gate"), x, feat, nb)
			br := b.Switch(name("sw"), x, gate, nb)
			tails := make([]graph.Port, 0, nb)
			sunk := 0
			for k := 0; k < nb; k++ {
				depth := 1 + rng.Intn(2)
				y := br[k]
				for d := 0; d < depth; d++ {
					y = b.MatMul(name("bm"), y, feat, feat)
				}
				// At most one branch may early-exit into a sink, and never
				// all of them.
				if sunk == 0 && k < nb-1 && rng.Intn(4) == 0 {
					b.Sink(name("sink"), y)
					sunk++
					continue
				}
				tails = append(tails, y)
			}
			x = b.Merge(name("m"), br, tails...)
		}
	}
	x = b.MatMul(name("head"), x, feat, 8)
	b.Output("out", x)
	return b.MustBuild()
}

// randomRouting produces a valid routing for every switch, respecting
// nesting (a unit can only be routed where it arrived).
func randomRouting(rng *rand.Rand, g *graph.Graph, units int) graph.BatchRouting {
	rt := make(graph.BatchRouting, len(g.Switches()))
	// Arrival tracking via repeated assignment: route switches in topo
	// order, using AssignUnits-like propagation of index sets.
	present := map[graph.OpID]map[int]bool{}
	full := map[int]bool{}
	for i := 0; i < units; i++ {
		full[i] = true
	}
	for _, id := range g.Topo() {
		op := g.Op(id)
		switch op.Kind {
		case graph.KindInput:
			present[id] = full
		case graph.KindSwitch:
			present[id] = present[op.Inputs[0]]
			arrived := make([]int, 0, len(present[id]))
			for u := range present[id] {
				arrived = append(arrived, u)
			}
			branches := make([][]int32, op.NumBranches)
			for _, u := range arrived {
				k := rng.Intn(op.NumBranches)
				branches[k] = append(branches[k], int32(u))
			}
			rt[g.SwitchOrdinal(id)] = graph.Routing{Branch: branches}
		case graph.KindMerge:
			present[id] = present[op.MergeOf]
		default:
			set := map[int]bool{}
			for _, in := range op.Inputs {
				prod := g.Op(in)
				if prod.Kind == graph.KindSwitch && op.SwitchOf == in {
					for _, u := range rt[g.SwitchOrdinal(in)].Branch[op.Branch] {
						set[int(u)] = true
					}
					continue
				}
				for u := range present[in] {
					set[u] = true
				}
			}
			present[id] = set
		}
	}
	return rt
}

// TestFuzzScheduleAndSimulate drives the whole stack — graph construction,
// scheduling under every policy, and pipelined simulation — over dozens of
// random DynNNs with random routings, asserting the core invariants.
func TestFuzzScheduleAndSimulate(t *testing.T) {
	cfg := hw.Default()
	policies := []sched.Policy{sched.MTile(), sched.AdynaStatic(), sched.Adyna()}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const units = 24
		g := randomGraph(rng, units)
		pol := policies[int(seed)%len(policies)]
		m, err := New(cfg, g, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plan, err := sched.Schedule(cfg, g, pol, m.Profiler())
		if err != nil {
			t.Fatalf("seed %d (%s): schedule: %v", seed, g.Name, err)
		}
		if err := plan.Validate(cfg, g); err != nil {
			t.Fatalf("seed %d: plan invalid: %v", seed, err)
		}
		if err := m.LoadPlan(plan); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var batches []workload.Batch
		for i := 0; i < 3; i++ {
			rt := randomRouting(rng, g, units)
			if err := g.ValidateRouting(units, rt, false); err != nil {
				t.Fatalf("seed %d: generated routing invalid: %v", seed, err)
			}
			batches = append(batches, workload.Batch{Index: i, Units: units, Routing: rt})
		}
		if err := m.Run(batches); err != nil {
			t.Fatalf("seed %d (%s): run: %v", seed, g.Name, err)
		}
		st := m.Stats()
		if st.Batches != 3 || st.Cycles <= 0 {
			t.Fatalf("seed %d: stats %+v", seed, st)
		}
		if u := m.PEUtilization(); u > 1 {
			t.Fatalf("seed %d: PE util %v > 1", seed, u)
		}
		if st.MACs < st.UsefulMACs {
			t.Fatalf("seed %d: issued %d < useful %d", seed, st.MACs, st.UsefulMACs)
		}
	}
}
