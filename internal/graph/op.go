// Package graph implements Adyna's unified representation: the *dynamic
// operator graph* of Section IV of the paper.
//
// All DynNN dynamism — dynamic depth, width, routing, and region — is folded
// onto the batch dimension. A dedicated switch operator splits a batch across
// branches according to a per-batch routing mask; a merge operator rejoins
// them; a sink discards samples (early exit, patch dropping). A built graph
// is immutable, so any number of runs and goroutines may share one: the
// frequency track tables of its dynamic operators belong to the hardware
// profiler (internal/profiler), which keeps one per operator.
package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// OpID identifies an operator within one Graph.
type OpID int

// None is the null operator reference.
const None OpID = -1

// Kind enumerates operator kinds. Compute kinds carry a work model; the
// control kinds (Switch, Merge, Sink) move data between branches.
type Kind int

const (
	// KindInput is the graph entry point producing the input batch.
	KindInput Kind = iota
	// KindOutput is the graph exit point.
	KindOutput
	// KindConv2D is a 2D convolution.
	KindConv2D
	// KindMatMul is a dense matrix multiplication (fully connected layer or
	// one piece of a transformer layer).
	KindMatMul
	// KindElementwise covers ReLU, residual adds, bias adds and similar
	// cheap per-element operators.
	KindElementwise
	// KindPool is a pooling/reduction operator.
	KindPool
	// KindLayerNorm is layer normalization.
	KindLayerNorm
	// KindSoftmax is a softmax.
	KindSoftmax
	// KindAttention is a fused self-attention score+context computation whose
	// cost is quadratic in sequence length.
	KindAttention
	// KindGate is a small routing-decision operator (the FC layers that
	// produce routing masks in Figure 5).
	KindGate
	// KindSwitch dynamically splits the batch dimension across branches
	// according to a routing mask (the paper's new operator).
	KindSwitch
	// KindMerge rejoins the branches of one switch, restoring a static batch.
	KindMerge
	// KindSink discards its input samples (early exit outputs that bypass
	// the rest of the network, dropped patches).
	KindSink
)

var kindNames = map[Kind]string{
	KindInput:       "input",
	KindOutput:      "output",
	KindConv2D:      "conv2d",
	KindMatMul:      "matmul",
	KindElementwise: "eltwise",
	KindPool:        "pool",
	KindLayerNorm:   "layernorm",
	KindSoftmax:     "softmax",
	KindAttention:   "attention",
	KindGate:        "gate",
	KindSwitch:      "switch",
	KindMerge:       "merge",
	KindSink:        "sink",
}

// String returns the kind's lower-case name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsCompute reports whether operators of this kind execute MACs on tiles (as
// opposed to pure control/data-movement kinds).
func (k Kind) IsCompute() bool {
	switch k {
	case KindConv2D, KindMatMul, KindElementwise, KindPool, KindLayerNorm,
		KindSoftmax, KindAttention, KindGate:
		return true
	}
	return false
}

// Op is one operator in a dynamic operator graph.
//
// The work model is normalized to one *unit* of the dynamic (batch)
// dimension: for CV models a unit is one image (or one patch when region
// dynamism is folded in), for NLP models one sequence. Total work for a
// concrete dyn value v is simply v times the per-unit figures, which is what
// makes the unified batch-dimension representation so convenient for
// scheduling.
type Op struct {
	// ID is the operator's index in Graph.Ops; Name its human-readable
	// label; Kind the operator class (compute, gate, switch, merge, ...).
	ID   OpID
	Name string
	Kind Kind

	// Work model, per unit of the dynamic dimension.
	MACsPerUnit     int64 // multiply-accumulate operations
	InBytesPerUnit  int64 // activation input footprint
	OutBytesPerUnit int64 // activation output footprint
	WeightBytes     int64 // parameter footprint (independent of dyn value)

	// Space is the per-unit iteration space of matrix-kind operators
	// (Conv2D, MatMul, Attention, Gate) as [C, M, H, W, R, S]: input
	// channels/features, output channels/features, output spatial dims,
	// filter dims. Its product equals MACsPerUnit. Vector-kind operators
	// (elementwise, pool, norm, softmax) leave it zero and are mapped as
	// full-array vector operations by the cost model.
	Space [6]int

	// Dynamism. Dynamic operators are the shaded operators of Figure 5:
	// their per-batch unit count varies with routing decisions.
	Dynamic bool
	// DensityAware marks operators whose cost depends on the batch's runtime
	// density dyn-value in (0,1] — the data-dependent sparsity axis. MACs and
	// input traffic scale with density while weights and outputs stay dense,
	// so sparse batches shift the operator from compute- toward memory-bound.
	// Density 1 (or an unset batch density) reproduces the dense cost exactly.
	DensityAware bool
	// MaxUnits is the worst-case unit count per batch (what the static
	// M-tile baseline schedules for).
	MaxUnits int

	// SwitchOf is the innermost switch whose branches contain this operator
	// (None for operators outside any branch). Branch is the branch index
	// under that switch.
	SwitchOf OpID
	Branch   int

	// NumBranches is set on switch operators.
	NumBranches int
	// MergeOf links a merge operator to the switch it closes.
	MergeOf OpID
	// MaskInput is set on switch operators: the operator producing the
	// routing mask.
	MaskInput OpID

	// Topology. Inputs/Outputs list data edges; for a switch, Outputs[k] is
	// the first operator of branch k.
	Inputs  []OpID
	Outputs []OpID

	// Ref optionally holds a functional reference implementation so small
	// graphs can be executed on real tensors in tests and examples.
	Ref *RefSpec
}

// RefSpec is a functional reference implementation of a compute operator.
type RefSpec struct {
	// Apply maps the operator's input tensors (one per data edge, in edge
	// order) to its output tensor. The batch (first) dimension may be any
	// value from 0 to MaxUnits.
	Apply func(ins []*tensor.Tensor) (*tensor.Tensor, error)
}

// TotalMACs returns the MAC count for a concrete dyn value.
func (o *Op) TotalMACs(units int) int64 { return o.MACsPerUnit * int64(units) }

// TotalInBytes returns the activation input bytes for a concrete dyn value.
func (o *Op) TotalInBytes(units int) int64 { return o.InBytesPerUnit * int64(units) }

// TotalOutBytes returns the activation output bytes for a concrete dyn value.
func (o *Op) TotalOutBytes(units int) int64 { return o.OutBytesPerUnit * int64(units) }

// String renders the operator as "name#id(kind)" with a dyn(max=N) suffix
// for dynamic operators.
func (o *Op) String() string {
	dyn := ""
	if o.Dynamic {
		dyn = fmt.Sprintf(" dyn(max=%d)", o.MaxUnits)
	}
	return fmt.Sprintf("%s#%d(%s)%s", o.Name, o.ID, o.Kind, dyn)
}

// Graph is a dynamic operator graph: a DAG of operators with designated
// input and output operators.
type Graph struct {
	// Name labels the graph in reports; Ops holds every operator, indexed
	// by its OpID.
	Name string
	Ops  []*Op
	// InputUnits is the number of dynamic units entering the graph per batch
	// of B samples, as a multiplier of B (1 for most models; the patch count
	// for DPSNet, which folds patches into the batch dimension).
	UnitsPerSample int

	inputs  []OpID
	outputs []OpID
	// topo is the cached topological order, computed once when the graph is
	// finalized (Build / DecodeGraph both validate, which fills it). Cached
	// because AssignUnits — called once per batch on the simulation hot path
	// — walks the graph in this order.
	topo []OpID
}

// Op returns the operator with the given ID.
func (g *Graph) Op(id OpID) *Op { return g.Ops[id] }

// Inputs returns the graph's input operators.
func (g *Graph) Inputs() []OpID { return g.inputs }

// Outputs returns the graph's output operators.
func (g *Graph) Outputs() []OpID { return g.outputs }

// Switches returns the IDs of all switch operators in topological order.
func (g *Graph) Switches() []OpID {
	var out []OpID
	for _, op := range g.Ops {
		if op.Kind == KindSwitch {
			out = append(out, op.ID)
		}
	}
	return out
}

// DynamicOps returns the IDs of all operators marked dynamic.
func (g *Graph) DynamicOps() []OpID {
	var out []OpID
	for _, op := range g.Ops {
		if op.Dynamic {
			out = append(out, op.ID)
		}
	}
	return out
}

// DensityOps returns the IDs of all density-aware operators — the operators
// whose cost scales with the batch's runtime density dyn-value. Empty for
// every purely routing-dynamic model.
func (g *Graph) DensityOps() []OpID {
	var out []OpID
	for _, op := range g.Ops {
		if op.DensityAware {
			out = append(out, op.ID)
		}
	}
	return out
}

// ComputeOps returns the IDs of all compute operators.
func (g *Graph) ComputeOps() []OpID {
	var out []OpID
	for _, op := range g.Ops {
		if op.Kind.IsCompute() {
			out = append(out, op.ID)
		}
	}
	return out
}

// MaxMACsPerBatch returns the worst-case MAC count of one batch, i.e. the
// amount of work the static M-tile baseline provisions for.
func (g *Graph) MaxMACsPerBatch() int64 {
	var total int64
	for _, op := range g.Ops {
		total += op.TotalMACs(op.MaxUnits)
	}
	return total
}

// Topo returns the operator IDs in a topological order. Build guarantees the
// graph is acyclic, so Topo always succeeds on built graphs. Finalized graphs
// return a copy of the cached order; callers may modify the result freely.
func (g *Graph) Topo() []OpID {
	if g.topo != nil {
		return append([]OpID(nil), g.topo...)
	}
	return g.computeTopo()
}

// topoOrder returns the topological order without copying. Internal hot-path
// use only: callers must not modify the result. Unfinalized graphs (no
// cached order) pay a fresh computation.
func (g *Graph) topoOrder() []OpID {
	if g.topo != nil {
		return g.topo
	}
	return g.computeTopo()
}

func (g *Graph) computeTopo() []OpID {
	indeg := make([]int, len(g.Ops))
	for _, op := range g.Ops {
		for _, out := range op.Outputs {
			indeg[out]++
		}
	}
	var queue []OpID
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, OpID(id))
		}
	}
	order := make([]OpID, 0, len(g.Ops))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, out := range g.Ops[id].Outputs {
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, out)
			}
		}
	}
	return order
}

// BranchOps returns the operators belonging to branch k of switch sw:
// every operator reachable from the branch head before the closing merge,
// including nested structures.
func (g *Graph) BranchOps(sw OpID, k int) []OpID {
	s := g.Op(sw)
	if s.Kind != KindSwitch || k < 0 || k >= s.NumBranches {
		return nil
	}
	var out []OpID
	seen := map[OpID]bool{}
	var walk func(id OpID)
	walk = func(id OpID) {
		if seen[id] {
			return
		}
		op := g.Op(id)
		if op.Kind == KindMerge && op.MergeOf == sw {
			return
		}
		seen[id] = true
		out = append(out, id)
		for _, next := range op.Outputs {
			walk(next)
		}
	}
	walk(s.Outputs[k])
	return out
}
