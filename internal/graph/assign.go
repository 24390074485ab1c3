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

// Total returns the total number of routed unit slots across all branches
// (counting broadcasts multiply).
func (r Routing) Total() int {
	n := 0
	for _, b := range r.Branch {
		n += len(b)
	}
	return n
}

// BatchRouting maps each switch operator to its routing decision for one
// batch. It is what the workload trace generator produces and what the
// switch hardware consumes as routing masks.
type BatchRouting map[OpID]Routing

// AssignUnits computes the concrete dyn_dim value (unit count) of every
// operator for one batch of batchUnits units routed according to rt. This is
// the pure graph analysis both the simulator and the profiler build on.
func (g *Graph) AssignUnits(batchUnits int, rt BatchRouting) (map[OpID]int, error) {
	if batchUnits < 0 {
		return nil, fmt.Errorf("graph: negative batch units %d", batchUnits)
	}
	units := make(map[OpID]int, len(g.Ops))
	for _, id := range g.topoOrder() {
		op := g.Op(id)
		switch op.Kind {
		case KindInput:
			units[id] = batchUnits
		case KindSwitch:
			// Data input only; the mask edge carries negligible data.
			units[id] = units[op.Inputs[0]]
			r, ok := rt[id]
			if !ok {
				return nil, fmt.Errorf("graph: no routing for switch %s", op.Name)
			}
			if len(r.Branch) != op.NumBranches {
				return nil, fmt.Errorf("graph: switch %s routing has %d branches, want %d",
					op.Name, len(r.Branch), op.NumBranches)
			}
		case KindMerge:
			units[id] = units[op.MergeOf]
		default:
			u := 0
			for _, in := range op.Inputs {
				v, err := g.arrivingUnits(op, in, units, rt)
				if err != nil {
					return nil, err
				}
				if v > u {
					u = v
				}
			}
			units[id] = u
		}
		if units[id] > op.MaxUnits {
			return nil, fmt.Errorf("graph: op %s receives %d units, max %d",
				op.Name, units[id], op.MaxUnits)
		}
	}
	return units, nil
}

// arrivingUnits returns how many units flow from producer in to consumer op.
func (g *Graph) arrivingUnits(op *Op, in OpID, units map[OpID]int, rt BatchRouting) (int, error) {
	prod := g.Op(in)
	if prod.Kind == KindSwitch && op.SwitchOf == in {
		// op is a branch head of this switch.
		r := rt[in]
		if op.Branch < 0 || op.Branch >= len(r.Branch) {
			return 0, fmt.Errorf("graph: op %s claims branch %d of switch %s", op.Name, op.Branch, prod.Name)
		}
		return len(r.Branch[op.Branch]), nil
	}
	return units[in], nil
}

// ValidateRouting checks that rt is structurally consistent with the graph
// for a batch of batchUnits units: branch counts match, indices are in range,
// no branch of a switch receives an index that never reached the switch, and
// exclusive switches (every non-MoE switch) route each arriving unit to
// exactly one branch.
func (g *Graph) ValidateRouting(batchUnits int, rt BatchRouting, exclusive bool) error {
	arrived := g.arrivalSets(batchUnits, rt)
	for _, swID := range g.Switches() {
		sw := g.Op(swID)
		r, ok := rt[swID]
		if !ok {
			return fmt.Errorf("graph: no routing for switch %s", sw.Name)
		}
		if len(r.Branch) != sw.NumBranches {
			return fmt.Errorf("graph: switch %s routing has %d branches, want %d",
				sw.Name, len(r.Branch), sw.NumBranches)
		}
		at := arrived[swID]
		seen := map[int]int{}
		for k, idxs := range r.Branch {
			dup := map[int]bool{}
			for _, u := range idxs {
				i := int(u)
				if i < 0 || i >= batchUnits {
					return fmt.Errorf("graph: switch %s branch %d routes out-of-range unit %d", sw.Name, k, i)
				}
				if !at[i] {
					return fmt.Errorf("graph: switch %s branch %d routes unit %d that never arrived", sw.Name, k, i)
				}
				if dup[i] {
					return fmt.Errorf("graph: switch %s branch %d routes unit %d twice", sw.Name, k, i)
				}
				dup[i] = true
				seen[i]++
			}
		}
		if exclusive {
			for i := range at {
				if seen[i] != 1 {
					return fmt.Errorf("graph: switch %s routes unit %d to %d branches, want exactly 1",
						sw.Name, i, seen[i])
				}
			}
		}
	}
	return nil
}

// arrivalSets computes, for each switch, the set of global unit indices that
// reach it under rt.
func (g *Graph) arrivalSets(batchUnits int, rt BatchRouting) map[OpID]map[int]bool {
	full := make(map[int]bool, batchUnits)
	for i := 0; i < batchUnits; i++ {
		full[i] = true
	}
	// present[op] = set of unit indices flowing out of op.
	present := map[OpID]map[int]bool{}
	arrived := map[OpID]map[int]bool{}
	for _, id := range g.Topo() {
		op := g.Op(id)
		switch op.Kind {
		case KindInput:
			present[id] = full
		case KindSwitch:
			present[id] = present[op.Inputs[0]]
			arrived[id] = present[id]
		case KindMerge:
			present[id] = present[op.MergeOf]
		default:
			set := map[int]bool{}
			for _, in := range op.Inputs {
				prod := g.Op(in)
				if prod.Kind == KindSwitch && op.SwitchOf == in {
					if r, ok := rt[in]; ok && op.Branch >= 0 && op.Branch < len(r.Branch) {
						for _, i := range r.Branch[op.Branch] {
							set[int(i)] = true
						}
					}
					continue
				}
				for i := range present[in] {
					set[i] = true
				}
			}
			present[id] = set
		}
	}
	return arrived
}
