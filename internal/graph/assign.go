package graph

import "fmt"

// Routing is the routing decision of one switch operator for one batch:
// Branch[k] lists the global unit indices (into the batch's unit space)
// routed to branch k. A unit may appear in several branches (top-k
// mixture-of-experts broadcasts samples) and may appear in none (it was
// dropped upstream). Indices are int32, half the width of int: routing
// traces are most of a simulation's live heap, a batch never holds 2^31
// units, and the simulator itself reads only each list's length.
type Routing struct {
	// Branch lists, per branch, the in-batch unit indices routed to it.
	Branch [][]int32
}

// BatchRouting is every switch operator's routing decision for one batch,
// indexed by the switch's ordinal (Graph.SwitchOrdinal: its position in
// Graph.Switches). It is what the workload trace generator produces and what
// the switch hardware consumes as routing masks.
type BatchRouting []Routing

// AssignUnits computes the concrete dyn_dim value (unit count) of every
// operator for one batch of batchUnits units routed according to rt, and
// returns it indexed by OpID. It fills dst, growing it to len(g.Ops) when it
// is shorter, so a caller that passes its previous result back resolves a
// batch without allocating. This is the pure graph analysis both the
// simulator and the profiler build on.
func (g *Graph) AssignUnits(dst []int, batchUnits int, rt BatchRouting) ([]int, error) {
	if batchUnits < 0 {
		return dst, fmt.Errorf("graph: negative batch units %d", batchUnits)
	}
	if cap(dst) < len(g.Ops) {
		dst = make([]int, len(g.Ops))
	}
	units := dst[:len(g.Ops)]
	for _, id := range g.topoOrder() {
		op := g.Ops[id]
		switch op.Kind {
		case KindInput:
			units[id] = batchUnits
		case KindSwitch:
			// Data input only; the mask edge carries negligible data.
			units[id] = units[op.Inputs[0]]
			o := g.SwitchOrdinal(id)
			if o >= len(rt) {
				return units, fmt.Errorf("graph: no routing for switch %s", op.Name)
			}
			if n := len(rt[o].Branch); n != op.NumBranches {
				return units, fmt.Errorf("graph: switch %s routing has %d branches, want %d",
					op.Name, n, op.NumBranches)
			}
		case KindMerge:
			units[id] = units[op.MergeOf]
		default:
			u := 0
			for _, in := range op.Inputs {
				v := units[in]
				if prod := g.Ops[in]; prod.Kind == KindSwitch && op.SwitchOf == in {
					// op is a branch head of this switch.
					br := rt[g.SwitchOrdinal(in)].Branch
					if op.Branch < 0 || op.Branch >= len(br) {
						return units, fmt.Errorf("graph: op %s claims branch %d of switch %s", op.Name, op.Branch, prod.Name)
					}
					v = len(br[op.Branch])
				}
				u = max(u, v)
			}
			units[id] = u
		}
		if units[id] > op.MaxUnits {
			return units, fmt.Errorf("graph: op %s receives %d units, max %d",
				op.Name, units[id], op.MaxUnits)
		}
	}
	return units, nil
}

// ValidateRouting checks that rt is structurally consistent with the graph
// for a batch of batchUnits units: one routing per switch, branch counts
// match, indices are in range, no branch of a switch receives an index that
// never reached the switch, and exclusive switches (every non-MoE switch)
// route each arriving unit to exactly one branch.
func (g *Graph) ValidateRouting(batchUnits int, rt BatchRouting, exclusive bool) error {
	if batchUnits < 0 {
		return fmt.Errorf("graph: negative batch units %d", batchUnits)
	}
	if len(rt) > len(g.switches) {
		return fmt.Errorf("graph: routing for %d switches, graph has %d", len(rt), len(g.switches))
	}
	arrived := g.arrivalSets(batchUnits, rt)
	seen := make([]int, batchUnits)
	// mark[i] is 1 + the last branch that routed unit i, to catch a unit
	// routed twice to one branch.
	mark := make([]int, batchUnits)
	for o, swID := range g.switches {
		sw := g.Ops[swID]
		if o >= len(rt) {
			return fmt.Errorf("graph: no routing for switch %s", sw.Name)
		}
		r := rt[o]
		if len(r.Branch) != sw.NumBranches {
			return fmt.Errorf("graph: switch %s routing has %d branches, want %d",
				sw.Name, len(r.Branch), sw.NumBranches)
		}
		at := arrived[o]
		clear(seen)
		clear(mark)
		for k, idxs := range r.Branch {
			for _, u := range idxs {
				i := int(u)
				if i < 0 || i >= batchUnits {
					return fmt.Errorf("graph: switch %s branch %d routes out-of-range unit %d", sw.Name, k, i)
				}
				if !at[i] {
					return fmt.Errorf("graph: switch %s branch %d routes unit %d that never arrived", sw.Name, k, i)
				}
				if mark[i] == k+1 {
					return fmt.Errorf("graph: switch %s branch %d routes unit %d twice", sw.Name, k, i)
				}
				mark[i] = k + 1
				seen[i]++
			}
		}
		if exclusive {
			for i, ok := range at {
				if ok && seen[i] != 1 {
					return fmt.Errorf("graph: switch %s routes unit %d to %d branches, want exactly 1",
						sw.Name, i, seen[i])
				}
			}
		}
	}
	return nil
}

// arrivalSets computes, for each switch by ordinal, which of the batch's
// unit indices reach it under rt. Indices outside [0, batchUnits) are left
// out; ValidateRouting reports them at the first switch that routes one.
func (g *Graph) arrivalSets(batchUnits int, rt BatchRouting) [][]bool {
	full := make([]bool, batchUnits)
	for i := range full {
		full[i] = true
	}
	// present[op] marks the unit indices flowing out of op.
	present := make([][]bool, len(g.Ops))
	arrived := make([][]bool, len(g.switches))
	for _, id := range g.topoOrder() {
		op := g.Ops[id]
		switch op.Kind {
		case KindInput:
			present[id] = full
		case KindSwitch:
			present[id] = present[op.Inputs[0]]
			arrived[g.SwitchOrdinal(id)] = present[id]
		case KindMerge:
			present[id] = present[op.MergeOf]
		default:
			set := make([]bool, batchUnits)
			for _, in := range op.Inputs {
				if g.Ops[in].Kind == KindSwitch && op.SwitchOf == in {
					if o := g.SwitchOrdinal(in); o < len(rt) && op.Branch >= 0 && op.Branch < len(rt[o].Branch) {
						for _, u := range rt[o].Branch[op.Branch] {
							if u >= 0 && int(u) < batchUnits {
								set[u] = true
							}
						}
					}
					continue
				}
				for i, ok := range present[in] {
					if ok {
						set[i] = true
					}
				}
			}
			present[id] = set
		}
	}
	return arrived
}
