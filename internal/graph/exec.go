package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// ExecResult holds the outcome of a functional graph execution.
type ExecResult struct {
	// Outputs maps each output operator to the tensor it received. Its batch
	// dimension equals the number of units that reached it.
	Outputs map[OpID]*tensor.Tensor
	// Sinks maps each sink operator to the tensor it swallowed (early-exit
	// results, dropped patches).
	Sinks map[OpID]*tensor.Tensor
	// Units is the concrete dyn_dim value every operator saw, indexed by
	// OpID (as AssignUnits returns it).
	Units []int
	// SampleIdx holds, per OpID, the global unit indices present in the
	// operator's output, in storage order.
	SampleIdx [][]int
}

type flow struct {
	t   *tensor.Tensor
	idx []int // global unit indices, one per batch row of t
}

// Execute runs the graph functionally on a real input tensor, splitting and
// merging batches according to rt. Every compute operator must carry a
// RefSpec. Execute exists to demonstrate and test that dynamic routing is
// functionally lossless; performance modelling never calls it.
func (g *Graph) Execute(input *tensor.Tensor, rt BatchRouting) (*ExecResult, error) {
	if len(g.inputs) != 1 {
		return nil, fmt.Errorf("graph %q: Execute supports exactly one input, have %d", g.Name, len(g.inputs))
	}
	batchUnits := input.Shape[0]
	res := &ExecResult{
		Outputs:   map[OpID]*tensor.Tensor{},
		Sinks:     map[OpID]*tensor.Tensor{},
		Units:     make([]int, len(g.Ops)),
		SampleIdx: make([][]int, len(g.Ops)),
	}
	flows := make([]flow, len(g.Ops))
	allIdx := make([]int, batchUnits)
	for i := range allIdx {
		allIdx[i] = i
	}
	for _, id := range g.Topo() {
		op := g.Op(id)
		var out flow
		switch op.Kind {
		case KindInput:
			out = flow{t: input, idx: allIdx}
		case KindSwitch:
			// The switch itself forwards its data input; branch heads gather
			// their slices from it below.
			out = flows[op.Inputs[0]]
			if g.SwitchOrdinal(id) >= len(rt) {
				return nil, fmt.Errorf("graph %q: no routing for switch %s", g.Name, op.Name)
			}
		case KindMerge:
			m, err := g.execMerge(op, flows, rt)
			if err != nil {
				return nil, err
			}
			out = m
		case KindSink:
			in, err := g.gatherInput(op, op.Inputs[0], flows, rt)
			if err != nil {
				return nil, err
			}
			res.Sinks[id] = in.t
			out = in
		case KindOutput:
			in, err := g.gatherInput(op, op.Inputs[0], flows, rt)
			if err != nil {
				return nil, err
			}
			res.Outputs[id] = in.t
			out = in
		default: // compute
			ins := make([]*tensor.Tensor, 0, len(op.Inputs))
			var idx []int
			for _, inID := range op.Inputs {
				f, err := g.gatherInput(op, inID, flows, rt)
				if err != nil {
					return nil, err
				}
				ins = append(ins, f.t)
				idx = f.idx
			}
			if op.Ref == nil {
				return nil, fmt.Errorf("graph %q: op %s has no reference implementation", g.Name, op.Name)
			}
			t, err := op.Ref.Apply(ins)
			if err != nil {
				return nil, fmt.Errorf("graph %q: op %s: %w", g.Name, op.Name, err)
			}
			if t.Shape[0] != len(idx) {
				return nil, fmt.Errorf("graph %q: op %s produced batch %d, want %d",
					g.Name, op.Name, t.Shape[0], len(idx))
			}
			out = flow{t: t, idx: idx}
		}
		flows[id] = out
		res.Units[id] = len(out.idx)
		res.SampleIdx[id] = out.idx
	}
	return res, nil
}

// gatherInput returns the flow delivered from producer inID to consumer op,
// slicing the producer's batch when op is a branch head.
func (g *Graph) gatherInput(op *Op, inID OpID, flows []flow, rt BatchRouting) (flow, error) {
	prod := g.Op(inID)
	src := flows[inID]
	if prod.Kind != KindSwitch || op.SwitchOf != inID {
		return src, nil
	}
	r := rt[g.SwitchOrdinal(inID)]
	if op.Branch < 0 || op.Branch >= len(r.Branch) {
		return flow{}, fmt.Errorf("graph %q: op %s claims branch %d of switch %s",
			g.Name, op.Name, op.Branch, prod.Name)
	}
	want := r.Branch[op.Branch]
	pos := make([]int, len(want))
	idx := make([]int, len(want))
	lookup := make(map[int]int, len(src.idx))
	for p, gi := range src.idx {
		lookup[gi] = p
	}
	for k, u := range want {
		gi := int(u)
		p, ok := lookup[gi]
		if !ok {
			return flow{}, fmt.Errorf("graph %q: switch %s branch %d routes unit %d that never arrived",
				g.Name, prod.Name, op.Branch, gi)
		}
		pos[k], idx[k] = p, gi
	}
	return flow{t: src.t.GatherBatch(pos), idx: idx}, nil
}

// execMerge re-assembles the branches of a switch into the switch's arriving
// batch, accumulating contributions (so top-k broadcasts sum correctly).
func (g *Graph) execMerge(op *Op, flows []flow, rt BatchRouting) (flow, error) {
	swFlow := flows[op.MergeOf]
	if len(op.Inputs) == 0 {
		return flow{}, fmt.Errorf("graph %q: merge %s has no inputs", g.Name, op.Name)
	}
	first := flows[op.Inputs[0]]
	shape := first.t.Shape.WithDim(0, len(swFlow.idx))
	out := tensor.New(shape)
	lookup := make(map[int]int, len(swFlow.idx))
	for p, gi := range swFlow.idx {
		lookup[gi] = p
	}
	for _, inID := range op.Inputs {
		f := flows[inID]
		pos := make([]int, len(f.idx))
		for i, gi := range f.idx {
			p, ok := lookup[gi]
			if !ok {
				return flow{}, fmt.Errorf("graph %q: merge %s receives unit %d unknown to switch %s",
					g.Name, op.Name, gi, g.Op(op.MergeOf).Name)
			}
			pos[i] = p
		}
		if err := out.AddInto(f.t, pos); err != nil {
			return flow{}, fmt.Errorf("graph %q: merge %s: %w", g.Name, op.Name, err)
		}
	}
	return flow{t: out, idx: swFlow.idx}, nil
}
