package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Port references the output of an operator during graph construction. For a
// switch operator, branch selects which branch output the port refers to.
type Port struct {
	op     OpID
	branch int // -1 for ordinary outputs
}

// dynCtx is a stack of (switch, branch) scopes a port is nested under.
// A port is dynamic iff its context is non-empty.
type dynCtx []scope

type scope struct {
	sw     OpID
	branch int
}

func (c dynCtx) equal(o dynCtx) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

func (c dynCtx) clone() dynCtx {
	out := make(dynCtx, len(c))
	copy(out, c)
	return out
}

// Builder constructs dynamic operator graphs. It is the programming surface
// the paper describes in Section IV: users wire ordinary operators as usual
// and mark dynamic structure with Switch / Merge / Sink; the builder tracks
// dynamic-dimension propagation automatically and enforces the
// representation's structural rules.
//
// Builder methods record the first error encountered and turn subsequent
// calls into no-ops; Build returns that error.
type Builder struct {
	name           string
	unitsPerSample int
	ops            []*Op
	ctx            map[OpID]dynCtx // context of each op's output
	maxUnits       map[OpID]int    // worst-case units of each op's output
	err            error
	built          bool
}

// NewBuilder starts a graph. unitsPerSample is the number of dynamic units
// one input sample contributes (1 normally; the patch count for models that
// fold patches into the batch dimension).
func NewBuilder(name string, unitsPerSample int) *Builder {
	b := &Builder{
		name:           name,
		unitsPerSample: unitsPerSample,
		ctx:            map[OpID]dynCtx{},
		maxUnits:       map[OpID]int{},
	}
	if unitsPerSample <= 0 {
		b.fail(fmt.Errorf("graph: unitsPerSample %d must be positive", unitsPerSample))
	}
	return b
}

func (b *Builder) fail(err error) Port {
	if b.err == nil {
		b.err = err
	}
	return Port{op: None, branch: -1}
}

func (b *Builder) newOp(name string, kind Kind) *Op {
	op := &Op{
		ID:        OpID(len(b.ops)),
		Name:      name,
		Kind:      kind,
		SwitchOf:  None,
		Branch:    -1,
		MergeOf:   None,
		MaskInput: None,
	}
	b.ops = append(b.ops, op)
	return op
}

// resolve returns the op for a port, validating it.
func (b *Builder) resolve(p Port) (*Op, bool) {
	if b.err != nil {
		return nil, false
	}
	if p.op == None || int(p.op) >= len(b.ops) {
		b.fail(fmt.Errorf("graph: use of invalid port in %q", b.name))
		return nil, false
	}
	return b.ops[p.op], true
}

// connect wires src -> dst, where src may be a branch port of a switch.
func (b *Builder) connect(src Port, dst *Op) {
	srcOp := b.ops[src.op]
	srcOp.Outputs = append(srcOp.Outputs, dst.ID)
	dst.Inputs = append(dst.Inputs, src.op)
}

// unit adds a compute op with the given work model downstream of the inputs.
// All inputs must share the same dynamic context.
func (b *Builder) unit(name string, kind Kind, macs, inB, outB, weightB int64, ins ...Port) Port {
	if b.err != nil {
		return Port{op: None, branch: -1}
	}
	if len(ins) == 0 {
		return b.fail(fmt.Errorf("graph: op %q has no inputs", name))
	}
	var ctx dynCtx
	var units int
	for i, in := range ins {
		if _, ok := b.resolve(in); !ok {
			return Port{op: None, branch: -1}
		}
		c, u := b.portCtx(in)
		if i == 0 {
			ctx, units = c, u
			continue
		}
		if !ctx.equal(c) {
			return b.fail(fmt.Errorf(
				"graph: op %q mixes inputs from different dynamic scopes (rule: one operator cannot sit on multiple branches)", name))
		}
		if u > units {
			units = u
		}
	}
	op := b.newOp(name, kind)
	op.MACsPerUnit = macs
	op.InBytesPerUnit = inB
	op.OutBytesPerUnit = outB
	op.WeightBytes = weightB
	op.MaxUnits = units
	op.Dynamic = len(ctx) > 0
	if op.Dynamic {
		top := ctx[len(ctx)-1]
		op.SwitchOf = top.sw
		op.Branch = top.branch
	}
	for _, in := range ins {
		b.connect(in, op)
	}
	b.ctx[op.ID] = ctx
	b.maxUnits[op.ID] = units
	return Port{op: op.ID, branch: -1}
}

// portCtx returns the dynamic context and worst-case units a port delivers.
func (b *Builder) portCtx(p Port) (dynCtx, int) {
	base := b.ctx[p.op].clone()
	units := b.maxUnits[p.op]
	if p.branch >= 0 {
		base = append(base, scope{sw: p.op, branch: p.branch})
	}
	return base, units
}

// Input declares a graph input producing batches whose samples carry
// bytesPerUnit activation bytes each. maxUnits is the worst-case per-batch
// unit count (batch size times unitsPerSample).
func (b *Builder) Input(name string, bytesPerUnit int64, maxUnits int) Port {
	if b.err != nil {
		return Port{op: None, branch: -1}
	}
	if maxUnits <= 0 {
		return b.fail(fmt.Errorf("graph: input %q maxUnits %d must be positive", name, maxUnits))
	}
	op := b.newOp(name, KindInput)
	op.OutBytesPerUnit = bytesPerUnit
	op.MaxUnits = maxUnits
	b.ctx[op.ID] = nil
	b.maxUnits[op.ID] = maxUnits
	return Port{op: op.ID, branch: -1}
}

// ConvSpec describes a conv2d layer's geometry.
type ConvSpec struct {
	InC, OutC    int // channels
	H, W         int // input spatial size
	R, S         int // filter size
	Stride, Pad  int // filter stride and input padding
	BytesPerWord int // defaults to 2 (FP16) when zero
}

// outDims returns the output spatial size.
func (s ConvSpec) outDims() (oh, ow int) {
	stride := s.Stride
	if stride == 0 {
		stride = 1
	}
	oh = (s.H+2*s.Pad-s.R)/stride + 1
	ow = (s.W+2*s.Pad-s.S)/stride + 1
	return oh, ow
}

// Conv2D adds a convolution with the given geometry.
func (b *Builder) Conv2D(name string, in Port, spec ConvSpec) Port {
	w := spec.BytesPerWord
	if w == 0 {
		w = 2
	}
	oh, ow := spec.outDims()
	if oh <= 0 || ow <= 0 {
		return b.fail(fmt.Errorf("graph: conv %q output %dx%d not positive", name, oh, ow))
	}
	macs := int64(spec.OutC) * int64(spec.InC) * int64(spec.R) * int64(spec.S) * int64(oh) * int64(ow)
	inB := int64(spec.InC) * int64(spec.H) * int64(spec.W) * int64(w)
	outB := int64(spec.OutC) * int64(oh) * int64(ow) * int64(w)
	wB := int64(spec.OutC) * int64(spec.InC) * int64(spec.R) * int64(spec.S) * int64(w)
	p := b.unit(name, KindConv2D, macs, inB, outB, wB, in)
	b.setSpace(p, spec.InC, spec.OutC, oh, ow, spec.R, spec.S)
	return p
}

// setSpace records the per-unit iteration space of a matrix operator.
func (b *Builder) setSpace(p Port, c, m, h, w, r, s int) {
	if b.err != nil || p.op == None {
		return
	}
	b.ops[p.op].Space = [6]int{c, m, h, w, r, s}
}

// MatMul adds a dense layer mapping inFeat features to outFeat features.
func (b *Builder) MatMul(name string, in Port, inFeat, outFeat int) Port {
	const w = 2
	macs := int64(inFeat) * int64(outFeat)
	p := b.unit(name, KindMatMul, macs, int64(inFeat)*w, int64(outFeat)*w, macs*w, in)
	b.setSpace(p, inFeat, outFeat, 1, 1, 1, 1)
	return p
}

// SeqMatMul adds a dense layer applied to every position of a length-seq
// sequence (one unit = one sequence), as in transformer FFN/projection
// layers.
func (b *Builder) SeqMatMul(name string, in Port, seq, inFeat, outFeat int) Port {
	const w = 2
	macs := int64(seq) * int64(inFeat) * int64(outFeat)
	p := b.unit(name, KindMatMul, macs,
		int64(seq)*int64(inFeat)*w, int64(seq)*int64(outFeat)*w, int64(inFeat)*int64(outFeat)*w, in)
	b.setSpace(p, inFeat, outFeat, seq, 1, 1, 1)
	return p
}

// Attention adds a fused self-attention operator (scores + context) over a
// length-seq sequence of dim features. QKV/output projections are separate
// SeqMatMul operators, following the paper's operator granularity.
func (b *Builder) Attention(name string, in Port, seq, dim int) Port {
	const w = 2
	macs := 2 * int64(seq) * int64(seq) * int64(dim) // QK^T and PV
	io := int64(seq) * int64(dim) * w
	p := b.unit(name, KindAttention, macs, 3*io, io, 0, in)
	b.setSpace(p, dim, seq, 2*seq, 1, 1, 1)
	return p
}

// Elementwise adds a cheap per-element operator (ReLU, residual add, bias).
// bytesPerUnit is the activation footprint of one unit.
func (b *Builder) Elementwise(name string, bytesPerUnit int64, ins ...Port) Port {
	elems := bytesPerUnit / 2
	return b.unit(name, KindElementwise, elems, bytesPerUnit, bytesPerUnit, 0, ins...)
}

// Pool adds a pooling operator reducing inBytes to outBytes per unit.
func (b *Builder) Pool(name string, in Port, inBytes, outBytes int64) Port {
	return b.unit(name, KindPool, inBytes/2, inBytes, outBytes, 0, in)
}

// LayerNorm adds a layer normalization over bytesPerUnit activation bytes.
func (b *Builder) LayerNorm(name string, in Port, bytesPerUnit int64) Port {
	return b.unit(name, KindLayerNorm, 2*bytesPerUnit/2, bytesPerUnit, bytesPerUnit, 0, in)
}

// Softmax adds a softmax over bytesPerUnit activation bytes.
func (b *Builder) Softmax(name string, in Port, bytesPerUnit int64) Port {
	return b.unit(name, KindSoftmax, 2*bytesPerUnit/2, bytesPerUnit, bytesPerUnit, 0, in)
}

// Gate adds a routing-decision operator: a small FC layer from inFeat
// features to nChoices logits whose output is consumed by a switch as its
// routing mask.
func (b *Builder) Gate(name string, in Port, inFeat, nChoices int) Port {
	const w = 2
	macs := int64(inFeat) * int64(nChoices)
	p := b.unit(name, KindGate, macs, int64(inFeat)*w, int64(nChoices)*w, macs*w, in)
	b.setSpace(p, inFeat, nChoices, 1, 1, 1, 1)
	return p
}

// Switch adds the paper's switch operator: data is split along the batch
// dimension into branches according to the routing mask produced by mask.
// It returns one port per branch; connect each branch's first operator to
// its port. Branches that should discard their samples connect to Sink;
// all surviving branches must rejoin at a single Merge.
func (b *Builder) Switch(name string, data, mask Port, branches int) []Port {
	if b.err != nil {
		return nil
	}
	if branches < 2 {
		b.fail(fmt.Errorf("graph: switch %q needs at least 2 branches", name))
		return nil
	}
	if _, ok := b.resolve(data); !ok {
		return nil
	}
	if _, ok := b.resolve(mask); !ok {
		return nil
	}
	dctx, units := b.portCtx(data)
	mctx, _ := b.portCtx(mask)
	if !dctx.equal(mctx) {
		b.fail(fmt.Errorf("graph: switch %q mask and data come from different dynamic scopes", name))
		return nil
	}
	op := b.newOp(name, KindSwitch)
	op.NumBranches = branches
	op.MaxUnits = units
	op.Dynamic = len(dctx) > 0
	if op.Dynamic {
		top := dctx[len(dctx)-1]
		op.SwitchOf = top.sw
		op.Branch = top.branch
	}
	op.InBytesPerUnit = b.outBytesPerUnit(data)
	op.OutBytesPerUnit = op.InBytesPerUnit
	op.MaskInput = mask.op
	b.connect(data, op)
	b.connect(mask, op)
	b.ctx[op.ID] = dctx
	b.maxUnits[op.ID] = units
	ports := make([]Port, branches)
	for k := range ports {
		ports[k] = Port{op: op.ID, branch: k}
	}
	return ports
}

// outBytesPerUnit reports the activation bytes one unit of p's output
// carries.
func (b *Builder) outBytesPerUnit(p Port) int64 {
	return b.ops[p.op].OutBytesPerUnit
}

// Merge closes the branches of sw, one input port per branch (in branch
// order). Samples re-assemble into a static batch; branches routed to Sink
// are excluded. For switches that broadcast samples to several branches
// (mixture-of-experts top-k), the merge accumulates contributions.
func (b *Builder) Merge(name string, sw []Port, ins ...Port) Port {
	if b.err != nil {
		return Port{op: None, branch: -1}
	}
	if len(sw) == 0 {
		return b.fail(fmt.Errorf("graph: merge %q closes no switch", name))
	}
	swID := sw[0].op
	swOp := b.ops[swID]
	if swOp.Kind != KindSwitch {
		return b.fail(fmt.Errorf("graph: merge %q does not reference a switch", name))
	}
	if len(ins) == 0 {
		return b.fail(fmt.Errorf("graph: merge %q has no inputs", name))
	}
	// All inputs must be scoped directly under this switch.
	seenBranch := map[int]bool{}
	for _, in := range ins {
		if _, ok := b.resolve(in); !ok {
			return Port{op: None, branch: -1}
		}
		c, _ := b.portCtx(in)
		if len(c) == 0 || c[len(c)-1].sw != swID {
			return b.fail(fmt.Errorf("graph: merge %q input not scoped under switch %q", name, swOp.Name))
		}
		k := c[len(c)-1].branch
		if seenBranch[k] {
			return b.fail(fmt.Errorf("graph: merge %q receives branch %d twice", name, k))
		}
		seenBranch[k] = true
	}
	op := b.newOp(name, KindMerge)
	op.MergeOf = swID
	outer := b.ctx[swID].clone()
	op.Dynamic = len(outer) > 0
	if op.Dynamic {
		top := outer[len(outer)-1]
		op.SwitchOf = top.sw
		op.Branch = top.branch
	}
	op.MaxUnits = b.maxUnits[swID]
	op.InBytesPerUnit = b.outBytesPerUnit(ins[0])
	op.OutBytesPerUnit = op.InBytesPerUnit
	for _, in := range ins {
		b.connect(in, op)
	}
	b.ctx[op.ID] = outer
	b.maxUnits[op.ID] = op.MaxUnits
	return Port{op: op.ID, branch: -1}
}

// Sink discards the samples arriving on a branch (early exits that emit
// results directly, dropped patches).
func (b *Builder) Sink(name string, in Port) {
	if b.err != nil {
		return
	}
	if _, ok := b.resolve(in); !ok {
		return
	}
	c, units := b.portCtx(in)
	op := b.newOp(name, KindSink)
	op.MaxUnits = units
	op.Dynamic = len(c) > 0
	if op.Dynamic {
		top := c[len(c)-1]
		op.SwitchOf = top.sw
		op.Branch = top.branch
	}
	op.InBytesPerUnit = b.outBytesPerUnit(in)
	b.connect(in, op)
	b.ctx[op.ID] = c
	b.maxUnits[op.ID] = units
}

// Output declares a graph output. Outputs may sit inside a dynamic scope:
// early-exiting networks (Figure 5(a)) have no merge, so the final classifier
// only sees the samples that never exited.
func (b *Builder) Output(name string, in Port) {
	if b.err != nil {
		return
	}
	if _, ok := b.resolve(in); !ok {
		return
	}
	c, units := b.portCtx(in)
	op := b.newOp(name, KindOutput)
	op.MaxUnits = units
	op.Dynamic = len(c) > 0
	if op.Dynamic {
		top := c[len(c)-1]
		op.SwitchOf = top.sw
		op.Branch = top.branch
	}
	op.InBytesPerUnit = b.outBytesPerUnit(in)
	b.connect(in, op)
	b.ctx[op.ID] = c
	b.maxUnits[op.ID] = units
}

// SetRef attaches a functional reference implementation to a compute
// operator, enabling Execute on the built graph.
func (b *Builder) SetRef(p Port, apply func(ins []*tensor.Tensor) (*tensor.Tensor, error)) {
	if b.err != nil || p.op == None {
		return
	}
	b.ops[p.op].Ref = &RefSpec{Apply: apply}
}

// Sparse marks the operator behind a port as density-aware: its runtime cost
// scales with the batch's density dyn-value in (0,1] (data-dependent
// sparsity). Model constructors mark their sparse aggregation operators this
// way; unmarked operators ignore batch density entirely.
func (b *Builder) Sparse(p Port) {
	if b.err != nil || p.op == None {
		return
	}
	b.ops[p.op].DensityAware = true
}

// FindOp returns the ID of the most recently added operator with the given
// name. Model constructors use it to record switch IDs for their trace
// generators.
func (b *Builder) FindOp(name string) (OpID, bool) {
	for i := len(b.ops) - 1; i >= 0; i-- {
		if b.ops[i].Name == name {
			return b.ops[i].ID, true
		}
	}
	return None, false
}

// Build finalizes and validates the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.built {
		return nil, fmt.Errorf("graph: %q already built", b.name)
	}
	g := &Graph{Name: b.name, Ops: b.ops, UnitsPerSample: b.unitsPerSample}
	for _, op := range b.ops {
		switch op.Kind {
		case KindInput:
			g.inputs = append(g.inputs, op.ID)
		case KindOutput:
			g.outputs = append(g.outputs, op.ID)
		}
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	b.built = true
	return g, nil
}

// MustBuild is Build that panics on error, for tests and model builders.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// validate enforces the structural rules of Section IV on a built graph.
func (g *Graph) validate() error {
	if len(g.inputs) == 0 {
		return fmt.Errorf("graph %q: no input operator", g.Name)
	}
	if len(g.outputs) == 0 {
		return fmt.Errorf("graph %q: no output operator", g.Name)
	}
	order := g.computeTopo()
	if len(order) != len(g.Ops) {
		return fmt.Errorf("graph %q: cycle detected", g.Name)
	}
	g.topo = order
	// Every switch must have each branch connected, and every non-sink
	// branch must eventually be closed by exactly one merge.
	merges := map[OpID]int{}
	for _, op := range g.Ops {
		if op.Kind == KindMerge {
			merges[op.MergeOf]++
		}
	}
	for _, swID := range g.Switches() {
		sw := g.Op(swID)
		// Outputs = branch heads (in connect order) plus nothing else.
		if len(sw.Outputs) != sw.NumBranches {
			return fmt.Errorf("graph %q: switch %s has %d connected branches, declared %d",
				g.Name, sw.Name, len(sw.Outputs), sw.NumBranches)
		}
		if merges[swID] > 1 {
			return fmt.Errorf("graph %q: switch %s closed by %d merges", g.Name, sw.Name, merges[swID])
		}
		if merges[swID] == 0 {
			// Legal only if every branch ends in sinks/outputs; verify no
			// branch op has dangling dynamic successors outside the switch.
			for k := 0; k < sw.NumBranches; k++ {
				ops := g.BranchOps(swID, k)
				if len(ops) == 0 {
					return fmt.Errorf("graph %q: switch %s branch %d is empty", g.Name, sw.Name, k)
				}
			}
		}
	}
	return nil
}
