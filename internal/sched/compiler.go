package sched

import (
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/profiler"
)

// Compiler is the kernel compile memo of one graph: every solve on that
// graph — bring-up plans, ahead-of-time plan-cache variants, cache misses,
// periodic and drift re-plans — and every on-demand full-kernel compile of
// the plans it produced looks kernels up here, so each (hardware config,
// shape class, dyn value, tiles) blocking search runs once per compiler
// instead of once per solve and per operator. A fleet's replicas and an
// mtserve's same-model tenants bring up on one graph and share its compiler,
// whatever their configs: the memo keys on the config.
//
// A shape class groups the graph's operators whose blocking search reads
// equal fields (see shapeOf), so same-shape operators — MoE's experts — share
// one search and its kernels. Kernels are never mutated after lowering and
// name no operator, so every plan of a compiler shares them freely. Classes
// are indexed by graph.OpID, which is only unique within one graph. A
// Compiler is safe for concurrent use: one mutex guards Schedule and the
// on-demand full-kernel path, so plans sharing it may run on different
// goroutines. Decoded plans get a private Compiler on first use.
type Compiler struct {
	g *graph.Graph
	// class holds, per operator, the lowest operator ID of its shape class.
	class []graph.OpID

	mu                sync.Mutex // guards the memos and the counters
	cfgs              map[hw.Config]*kernelMemo
	lookups, searches int64
}

// shape is everything a blocking search reads of an operator:
// costmodel.Search (with Evaluate and weightsFit) and kernels.Lower read
// these fields and no others. TestSearchReadsOnlyShape pins the list.
type shape struct {
	kind                   graph.Kind
	macs, in, out, weights int64
	space                  [6]int
}

func shapeOf(op *graph.Op) shape {
	return shape{op.Kind, op.MACsPerUnit, op.InBytesPerUnit, op.OutBytesPerUnit, op.WeightBytes, op.Space}
}

// kernelMemo is the part of a Compiler bound to one kernel-relevant hardware
// config (see forConfig). A solve resolves its config once and then keys on
// one packed word (see kernelKey): hashing the full hw.Config per kernel
// lookup would cost more than the lookup itself.
type kernelMemo struct {
	c   *Compiler
	cfg hw.Config
	// shapes is keyed by shape class; failed by the operator's own ID,
	// because a failed search's error names the operator.
	shapes map[uint64]*shapeKernels
	failed map[uint64]error
}

// shapeKernels is one memoized blocking search: its two rate-free
// candidates, each lowered to a kernel on first use.
type shapeKernels struct {
	cands   costmodel.Candidates
	kernels [2]*kernels.Kernel
}

// Field widths of the packed kernel key: operator or class ID, dyn value,
// tiles.
const (
	keyOpBits    = 20
	keyUnitsBits = 28
	keyTilesBits = 16
)

// kernelKey packs (op, units, tiles) into one word, so memo lookups take the
// map's 64-bit fast path. ok is false when a field falls outside its width
// (negative included); such a kernel bypasses the memo instead of aliasing
// another kernel's key.
func kernelKey(op graph.OpID, units, tiles int) (key uint64, ok bool) {
	if uint(op) >= 1<<keyOpBits || uint(units) >= 1<<keyUnitsBits || uint(tiles) >= 1<<keyTilesBits {
		return 0, false
	}
	return uint64(op)<<(keyUnitsBits+keyTilesBits) | uint64(units)<<keyTilesBits | uint64(tiles), true
}

// NewCompiler returns an empty compile memo for g, whose operators must not
// change afterwards: their shape classes are fixed here.
func NewCompiler(g *graph.Graph) *Compiler {
	class := make([]graph.OpID, len(g.Ops))
	reps := map[shape]graph.OpID{}
	for i, op := range g.Ops {
		s := shapeOf(op)
		rep, ok := reps[s]
		if !ok {
			rep = graph.OpID(i)
			reps[s] = rep
		}
		class[i] = rep
	}
	return &Compiler{g: g, class: class, cfgs: map[hw.Config]*kernelMemo{}}
}

// Graph returns the graph the compiler compiles for.
func (c *Compiler) Graph() *graph.Graph { return c.g }

// Stats reports how many kernel lookups the memo has served and how many of
// them ran a blocking search (the misses).
func (c *Compiler) Stats() (lookups, searches int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookups, c.searches
}

// Len reports the number of memoized blocking searches, failed ones
// included, across every config.
func (c *Compiler) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.cfgs {
		n += len(m.shapes) + len(m.failed)
	}
	return n
}

// Schedule solves a plan for the compiler's graph exactly like the
// package-level Schedule, compiling kernels through the memo. The plan keeps
// the compiler for its own on-demand compiles.
func (c *Compiler) Schedule(cfg hw.Config, pol Policy, prof *profiler.Profiler) (*Plan, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ents, order, err := buildEntities(c.g)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	km := c.forConfig(cfg)
	plan := &Plan{Policy: pol, comp: c}
	for i, leads := range segment(cfg, c.g, ents, order) {
		s, err := planSegment(cfg, km, pol, prof, ents, i, leads)
		if err != nil {
			return nil, err
		}
		plan.Segments = append(plan.Segments, s)
	}
	return plan, nil
}

// compile is the on-demand full-kernel path: one memo lookup under the lock.
func (c *Compiler) compile(cfg hw.Config, op *graph.Op, units, tiles int) (*kernels.Kernel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forConfig(cfg).kernel(op, units, tiles, cfg.HBMBytesPerCycle())
}

// forConfig resolves the memo for one hardware config. A blocking search
// reads neither the failed-tile mask nor the NoC derate, and the HBM rate
// only enters the choice between its candidates, which every lookup makes at
// its own config's rate; so configs that differ only there (tile losses, NoC
// and HBM windows, tenant bandwidth shares) share one memo. The caller holds
// c.mu, or owns c alone.
func (c *Compiler) forConfig(cfg hw.Config) *kernelMemo {
	cfg.FailedTiles, cfg.NoCDerate, cfg.HBMDerate = "", 0, 0
	m, ok := c.cfgs[cfg]
	if !ok {
		m = &kernelMemo{c: c, cfg: cfg, shapes: map[uint64]*shapeKernels{}, failed: map[uint64]error{}}
		c.cfgs[cfg] = m
	}
	return m
}

// keys returns the memo keys of op's shape class and of op itself. ok is
// false when op's ID lies outside the compiler's graph or a field outside its
// key width; a class ID is at most its operators' IDs, so it fits wherever
// theirs does.
func (c *Compiler) keys(op *graph.Op, units, tiles int) (class, own uint64, ok bool) {
	if uint(op.ID) >= uint(len(c.class)) {
		return 0, 0, false
	}
	if own, ok = kernelKey(op.ID, units, tiles); !ok {
		return 0, 0, false
	}
	class, _ = kernelKey(c.class[op.ID], units, tiles)
	return class, own, true
}

// kernel returns the kernel for op at the given dyn value and tile
// allocation with streamed weights priced at hbmRate bytes per cycle,
// running the blocking search on the first request for op's shape class
// only. op must belong to the compiler's graph.
func (m *kernelMemo) kernel(op *graph.Op, units, tiles int, hbmRate float64) (*kernels.Kernel, error) {
	m.c.lookups++
	classKey, opKey, ok := m.c.keys(op, units, tiles)
	var s *shapeKernels
	if ok {
		if s = m.shapes[classKey]; s == nil {
			if err, hit := m.failed[opKey]; hit {
				return nil, err
			}
		}
	}
	if s == nil {
		m.c.searches++
		cands, err := costmodel.Search(m.cfg, op, units, tiles)
		if err != nil {
			if ok {
				m.failed[opKey] = err
			}
			return nil, err
		}
		s = &shapeKernels{cands: cands}
		if ok {
			m.shapes[classKey] = s
		}
	}
	i, err := s.cands.Choose(op, hbmRate)
	if err != nil {
		return nil, err
	}
	if s.kernels[i] == nil {
		s.kernels[i] = kernels.Lower(m.cfg, op, units, tiles, s.cands.Blocking[i])
	}
	return s.kernels[i], nil
}

// set compiles a kernel for each of the given dyn values on one tile
// allocation — the kernel store of one allocation option.
func (m *kernelMemo) set(op *graph.Op, values []int, tiles int, hbmRate float64) (*kernels.Set, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("kernels: no values to compile for %s", op.Name)
	}
	ks := make([]*kernels.Kernel, 0, len(values))
	for _, v := range values {
		k, err := m.kernel(op, v, tiles, hbmRate)
		if err != nil {
			return nil, fmt.Errorf("kernels: compiling %s at %d: %w", op.Name, v, err)
		}
		ks = append(ks, k)
	}
	return kernels.NewSet(ks)
}
