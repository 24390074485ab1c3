// Package costmodel is the analytic hardware cost model of the Adyna
// scheduler (Figure 4): given an operator, a dataflow blocking scheme, a tile
// allocation and a concrete dyn_dim value, it predicts execution latency, MAC
// count, on-chip traffic and off-chip traffic. Both kernel generation
// (internal/kernels) and the transaction-level simulator (internal/accel)
// consume these predictions, which keeps the scheduler's view of the hardware
// and the simulated hardware consistent — the same property the paper gets by
// calibrating its SimPy components against RTL.
//
// # Model
//
// Matrix operators (conv2d, matmul, attention, gate) map onto the 32x32 PE
// array with output channels/features M on rows and input channels/features C
// on columns; when M underfills the rows, additional dyn units are folded
// onto the idle rows. Across tiles the dyn (batch) dimension is split
// SplitN ways and M is split SplitM ways. The innermost dyn blocking factor
// NBlk sets the granularity of runtime kernel-fitting: execution processes
// ceil(u/NBlk)*NBlk units per tile group, so a kernel compiled for a much
// larger dyn value wastes capacity on alignment — exactly the loss the
// paper's multi-kernel selection and sampling minimize.
//
// Vector operators (elementwise, pooling, layernorm, softmax) use the whole
// PE array as a 1024-lane vector unit.
package costmodel

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hw"
)

// Blocking is a compiled dataflow scheme for one operator at one dyn value
// and one tile allocation — the decision variables of kernel generation.
type Blocking struct {
	// SplitN and SplitM partition the dyn dimension and the M dimension
	// across the allocated tiles; SplitN*SplitM <= tiles.
	SplitN, SplitM int
	// NBlk is the innermost dyn-dimension blocking factor (units processed
	// back-to-back before weights are swapped); it is also the granularity
	// of runtime kernel-fitting.
	NBlk int
	// WeightResident reports whether the per-tile weight slice fits in the
	// scratchpad alongside activation buffers; when false the kernel streams
	// weights from HBM on every invocation.
	WeightResident bool
}

// Validate reports whether the blocking is usable for the given allocation.
func (b Blocking) Validate(tiles int) error {
	switch {
	case b.SplitN < 1 || b.SplitM < 1:
		return fmt.Errorf("costmodel: splits %dx%d must be positive", b.SplitN, b.SplitM)
	case b.SplitN*b.SplitM > tiles:
		return fmt.Errorf("costmodel: splits %dx%d exceed %d tiles", b.SplitN, b.SplitM, tiles)
	case b.NBlk < 1:
		return fmt.Errorf("costmodel: NBlk %d must be positive", b.NBlk)
	}
	return nil
}

// Eval is the predicted cost of one kernel invocation.
type Eval struct {
	// Cycles is the stage latency: the time the operator's tile group is
	// occupied processing one batch's worth of its units.
	Cycles int64
	// MACs counts multiply-accumulates actually issued, including alignment
	// waste (for energy accounting).
	MACs int64
	// SRAMBytes is scratchpad traffic: activation reads/writes plus weight
	// re-reads, reduced by dyn-block reuse.
	SRAMBytes int64
	// HBMWeightBytes is off-chip weight traffic for this invocation (zero
	// when weights are scratchpad-resident).
	HBMWeightBytes int64
	// InBytes and OutBytes are the activation bytes entering and leaving the
	// operator (what the NoC or HBM must move).
	InBytes, OutBytes int64
	// SpatialEff is the fraction of the PE array doing useful work while the
	// kernel runs.
	SpatialEff float64
}

// startupCycles is the fixed pipeline fill/drain overhead of one kernel
// invocation (array depth plus scratchpad latency).
const startupCycles = 96

// opByteAmort is the register-file reuse factor for per-MAC operand fetches
// from the scratchpad: each MAC consumes two 2-byte operands, amortized over
// the array's local reuse, leaving roughly one scratchpad byte per
// opByteAmort MACs.
const opByteAmort = 8

// FittingGapShare is the fraction of the compiled-vs-actual dyn gap that
// runtime kernel-fitting cannot recover (partial tiles, mismatched buffer
// tiling, broken weight reuse). Zero would make fitting perfect; one would
// make it useless.
const FittingGapShare = 0.55

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("costmodel: ceilDiv by non-positive")
	}
	return (a + b - 1) / b
}

// Evaluate predicts the cost of executing actualUnits units of op on a kernel
// compiled for compiledUnits units with blocking blk on tiles tiles. When
// fitting is false (the static M-tile baseline) the hardware cannot skip the
// gap and pays for the full compiled size in both compute and activation
// traffic. actualUnits must not exceed compiledUnits: the dispatcher always
// selects a kernel at least as large as the actual value.
func Evaluate(cfg hw.Config, op *graph.Op, blk Blocking, compiledUnits, actualUnits, tiles int, fitting bool) (Eval, error) {
	if err := blk.Validate(tiles); err != nil {
		return Eval{}, err
	}
	if actualUnits > compiledUnits {
		return Eval{}, fmt.Errorf("costmodel: actual %d exceeds compiled %d for %s",
			actualUnits, compiledUnits, op.Name)
	}
	if compiledUnits <= 0 {
		return Eval{}, fmt.Errorf("costmodel: compiled units %d must be positive", compiledUnits)
	}
	if !fitting {
		actualUnits = compiledUnits
	}
	if actualUnits == 0 {
		return Eval{SpatialEff: 0}, nil
	}

	// Units per tile group, aligned to the kernel's dyn blocking.
	uCompiled := ceilDiv(int64(compiledUnits), int64(blk.SplitN))
	u := ceilDiv(int64(actualUnits), int64(blk.SplitN))
	uAligned := ceilDiv(u, int64(blk.NBlk)) * int64(blk.NBlk)
	if uAligned > uCompiled {
		uAligned = uCompiled
	}
	// Total aligned units chip-wide (active tile groups only).
	activeGroups := int64(blk.SplitN)
	if int64(actualUnits) < activeGroups {
		activeGroups = int64(actualUnits)
	}
	totalAligned := uAligned * activeGroups
	if totalAligned > int64(compiledUnits) && !fitting {
		totalAligned = int64(compiledUnits)
	}

	ev := Eval{
		InBytes:  op.InBytesPerUnit * int64(actualUnits),
		OutBytes: op.OutBytesPerUnit * int64(actualUnits),
	}

	if IsVector(op.Kind) {
		lanes := int64(cfg.PEsPerTile()) * int64(tiles)
		work := op.MACsPerUnit * int64(actualUnits)
		ev.Cycles = ceilDiv(work, lanes) + startupCycles
		ev.MACs = work
		ev.SRAMBytes = ev.InBytes + ev.OutBytes + work/opByteAmort
		ev.SpatialEff = clamp01(float64(work) / float64(ev.Cycles*lanes))
		return ev, nil
	}

	c, m := op.Space[0], op.Space[1]
	if c <= 0 || m <= 0 {
		return Eval{}, fmt.Errorf("costmodel: op %s (%s) lacks an iteration space", op.Name, op.Kind)
	}
	// The reduction dimension mapped onto PE columns is C.R.S (im2col
	// folding): early convolutions with few input channels still fill the
	// array with their filter window.
	k := c * op.Space[4] * op.Space[5]
	spatialPerUnit := op.MACsPerUnit / (int64(k) * int64(m)) // H*W

	// Per-tile M slice.
	mt := ceilDiv(int64(m), int64(blk.SplitM))
	rows, cols := int64(cfg.PERows), int64(cfg.PECols)

	// Row efficiency: M on rows, folding dyn units onto idle rows when M is
	// small.
	var rowEff float64
	nFold := int64(1)
	if mt >= rows {
		rowEff = float64(mt) / float64(ceilDiv(mt, rows)*rows)
	} else {
		nFold = rows / mt
		if nFold > uAligned {
			nFold = uAligned
		}
		if nFold < 1 {
			nFold = 1
		}
		rowEff = float64(mt*nFold) / float64(rows)
	}
	// Column efficiency: the C.R.S reduction on columns.
	var colEff float64
	if int64(k) >= cols {
		colEff = float64(k) / float64(ceilDiv(int64(k), cols)*cols)
	} else {
		colEff = float64(k) / float64(cols)
	}
	eff := rowEff * colEff
	if eff <= 0 {
		eff = 1e-6
	}

	perUnitMACsTile := int64(k) * mt * spatialPerUnit
	idealLanes := float64(rows * cols)
	// Kernel-gap penalty: blocking factors, buffer tiling and the
	// parallelization scheme are tuned for the compiled dyn value; running a
	// smaller actual value leaves partial tiles and broken reuse, so runtime
	// fitting recovers only part of the gap. The effective per-group units
	// interpolate between the fitted and the compiled size — a loss growing
	// with (v_i - v), exactly the objective the paper's multi-kernel
	// sampling minimizes. A kernel compiled for the actual value (the
	// full-kernel ideal) pays nothing.
	effU := float64(uAligned) + FittingGapShare*float64(uCompiled-uAligned)
	if effU < float64(uAligned) {
		effU = float64(uAligned)
	}
	ev.Cycles = int64(math.Ceil(effU*float64(perUnitMACsTile)/(idealLanes*eff))) + startupCycles
	// Issued MACs include the unrecoverable share of the gap.
	issuedUnits := int64(math.Ceil(effU)) * activeGroups
	if issuedUnits < totalAligned {
		issuedUnits = totalAligned
	}
	if issuedUnits > int64(compiledUnits) {
		issuedUnits = int64(compiledUnits)
	}
	ev.MACs = issuedUnits * op.MACsPerUnit
	ev.SpatialEff = clamp01(float64(uAligned*perUnitMACsTile) / (float64(ev.Cycles) * idealLanes))

	// Weight passes: weights stream through the array once per dyn block.
	passes := ceilDiv(uAligned, int64(blk.NBlk))
	weightTilesBytes := op.WeightBytes / int64(blk.SplitM) // each M-split tile holds a slice
	ev.SRAMBytes = ev.InBytes + ev.OutBytes + weightTilesBytes*passes*int64(blk.SplitN) +
		ev.MACs/opByteAmort // operand fetches amortized by register-file reuse
	if !blk.WeightResident {
		ev.HBMWeightBytes = op.WeightBytes
	}
	return ev, nil
}

// IsVector reports whether operators of kind k are vector operators
// (elementwise, pool, norm, softmax), which map as full-array vector
// operations and fuse into their producer.
func IsVector(k graph.Kind) bool {
	switch k {
	case graph.KindElementwise, graph.KindPool, graph.KindLayerNorm, graph.KindSoftmax:
		return true
	}
	return false
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Optimize searches blocking schemes for op at the given compiled dyn value
// and tile allocation, returning the scheme minimizing predicted latency
// (with off-chip weight streaming priced at the configured HBM bandwidth).
// This is the kernel-generation level of the scheduling stack: a rate-free
// Search plus the Choose between its two candidates at cfg's HBM rate.
func Optimize(cfg hw.Config, op *graph.Op, compiledUnits, tiles int) (Blocking, Eval, error) {
	c, err := Search(cfg, op, compiledUnits, tiles)
	if err != nil {
		return Blocking{}, Eval{}, err
	}
	i, err := c.Choose(op, cfg.HBMBytesPerCycle())
	if err != nil {
		return Blocking{}, Eval{}, err
	}
	return c.Blocking[i], c.Eval[i], nil
}

// Candidates is the HBM-rate-free outcome of one blocking search. The rate
// only prices streamed weights, a constant op.WeightBytes per streaming
// scheme, so at any rate the optimum is either the first minimum-cycle
// weight-resident scheme (index 0) or the first minimum-cycle streaming one
// (index 1), in SplitN order.
type Candidates struct {
	// Blocking holds the resident and the streaming candidate; an absent
	// one is the zero Blocking.
	Blocking [2]Blocking
	// Eval holds each candidate's predicted cost at the compiled dyn value.
	Eval  [2]Eval
	tiles int
}

// Search evaluates every SplitN scheme for op at the given compiled dyn value
// and tile allocation and keeps the two candidates Choose picks between. It
// reads cfg's PE array and scratchpad split but not its HBM bandwidth, and of
// op only Kind, MACsPerUnit, InBytesPerUnit, OutBytesPerUnit, WeightBytes and
// Space; Name appears in errors only.
func Search(cfg hw.Config, op *graph.Op, compiledUnits, tiles int) (Candidates, error) {
	if tiles < 1 {
		return Candidates{}, fmt.Errorf("costmodel: %s allocated %d tiles", op.Name, tiles)
	}
	if compiledUnits < 1 {
		return Candidates{}, fmt.Errorf("costmodel: %s compiled for %d units", op.Name, compiledUnits)
	}
	c := Candidates{tiles: tiles}
	for sn := 1; sn <= tiles && sn <= compiledUnits; sn++ {
		sm := tiles / sn
		if sm < 1 {
			continue
		}
		if m := op.Space[1]; m > 0 && sm > m {
			sm = m
		}
		blk := Blocking{
			SplitN:         sn,
			SplitM:         sm,
			NBlk:           dynBlock(compiledUnits, sn),
			WeightResident: weightsFit(cfg, op, sm),
		}
		ev, err := Evaluate(cfg, op, blk, compiledUnits, compiledUnits, tiles, true)
		if err != nil {
			continue
		}
		i := 1
		if blk.WeightResident {
			i = 0
		}
		if c.Blocking[i].SplitN == 0 || ev.Cycles < c.Eval[i].Cycles {
			c.Blocking[i], c.Eval[i] = blk, ev
		}
	}
	if c.Blocking[0].SplitN == 0 && c.Blocking[1].SplitN == 0 {
		return Candidates{}, noBlocking(op, tiles)
	}
	return c, nil
}

// Choose returns the index of the candidate with the lowest predicted cost
// at hbmRate bytes per cycle, streamed weights priced at that rate; a tie
// goes to the lower SplitN. op only names the operator in the error, which
// reports a rate at which no candidate has a finite cost.
func (c *Candidates) Choose(op *graph.Op, hbmRate float64) (int, error) {
	order := [2]int{0, 1}
	if c.Blocking[1].SplitN < c.Blocking[0].SplitN {
		order = [2]int{1, 0}
	}
	best, bestCost := -1, math.Inf(1)
	for _, i := range order {
		if c.Blocking[i].SplitN == 0 {
			continue
		}
		if cost := float64(c.Eval[i].Cycles) + float64(c.Eval[i].HBMWeightBytes)/hbmRate; cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return 0, noBlocking(op, c.tiles)
	}
	return best, nil
}

func noBlocking(op *graph.Op, tiles int) error {
	return fmt.Errorf("costmodel: no valid blocking for %s on %d tiles", op.Name, tiles)
}

// dynBlock picks the innermost dyn blocking factor for a kernel compiled for
// the given size: a quarter of the per-group units, clamped to [1, 16].
// Larger kernels block coarser (better weight reuse), which is precisely why
// running a small actual value on a large kernel wastes capacity.
func dynBlock(compiledUnits, splitN int) int {
	u := (compiledUnits + splitN - 1) / splitN
	nb := u / 4
	if nb < 1 {
		nb = 1
	}
	if nb > 16 {
		nb = 16
	}
	return nb
}

// weightsFit reports whether a 1/splitM slice of the operator's weights plus
// double-buffered activation blocks fit in the data share of the scratchpad.
func weightsFit(cfg hw.Config, op *graph.Op, splitM int) bool {
	if op.WeightBytes == 0 {
		return true
	}
	slice := op.WeightBytes / int64(splitM)
	actBudget := 2 * (op.InBytesPerUnit + op.OutBytesPerUnit) // double buffering, one unit
	dataShare := int64(cfg.ScratchpadBytes - cfg.KernelBudgetBytes)
	return slice+actBudget <= dataShare
}
