package sched

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/profiler"
)

// Compiler is the kernel compile memo of one graph: every solve on that
// graph — bring-up plans, ahead-of-time plan-cache variants, cache misses,
// periodic and drift re-plans — and every on-demand full-kernel compile of
// the plans it produced looks kernels up here, so each (hardware config,
// operator, dyn value, tiles) kernel runs its blocking search once per
// compiler instead of once per solve. A fleet's replicas and an mtserve's
// same-model tenants bring up on one graph and share its compiler, whatever
// their configs: the memo keys on the config.
//
// Kernels are never mutated after lowering, so every plan of a compiler
// shares them freely. The memo keys on graph.OpID, which is only unique
// within one graph. A Compiler is safe for concurrent use: one mutex guards
// Schedule and the on-demand full-kernel path, so plans sharing it may run
// on different goroutines. Decoded plans get a private Compiler on first
// use.
type Compiler struct {
	g *graph.Graph

	mu                sync.Mutex // guards the memos and the counters
	cfgs              map[hw.Config]*kernelMemo
	lookups, searches int64
}

// kernelMemo is the part of a Compiler bound to one kernel-relevant hardware
// config (see forConfig). A solve resolves its config once and then keys on
// one packed word (see kernelKey): hashing the full hw.Config per kernel
// lookup would cost more than the lookup itself.
type kernelMemo struct {
	c       *Compiler
	cfg     hw.Config
	kernels map[uint64]compiled
}

// Field widths of the packed kernel key: operator ID, dyn value, tiles.
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

// compiled memoizes errors too: a failed blocking search is as
// deterministic as a successful one.
type compiled struct {
	k   *kernels.Kernel
	err error
}

// NewCompiler returns an empty compile memo for g.
func NewCompiler(g *graph.Graph) *Compiler {
	return &Compiler{g: g, cfgs: map[hw.Config]*kernelMemo{}}
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

// Len reports the number of memoized kernels across every config.
func (c *Compiler) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.cfgs {
		n += len(m.kernels)
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
	return c.forConfig(cfg).kernel(op, units, tiles)
}

// forConfig resolves the memo for one hardware config. Kernel generation
// reads neither the failed-tile mask nor the NoC derate, so configs that
// differ only there (tile losses, NoC windows) share one memo. The caller
// holds c.mu, or owns c alone.
func (c *Compiler) forConfig(cfg hw.Config) *kernelMemo {
	cfg.FailedTiles, cfg.NoCDerate = "", 0
	m, ok := c.cfgs[cfg]
	if !ok {
		m = &kernelMemo{c: c, cfg: cfg, kernels: map[uint64]compiled{}}
		c.cfgs[cfg] = m
	}
	return m
}

// kernel returns the kernel for op at the given dyn value and tile
// allocation, running the blocking search on the first request only.
func (m *kernelMemo) kernel(op *graph.Op, units, tiles int) (*kernels.Kernel, error) {
	m.c.lookups++
	key, ok := kernelKey(op.ID, units, tiles)
	if ok {
		if r, hit := m.kernels[key]; hit {
			return r.k, r.err
		}
	}
	m.c.searches++
	k, err := kernels.Generate(m.cfg, op, units, tiles)
	if ok {
		m.kernels[key] = compiled{k: k, err: err}
	}
	return k, err
}

// set compiles a kernel for each of the given dyn values on one tile
// allocation — the kernel store of one allocation option.
func (m *kernelMemo) set(op *graph.Op, values []int, tiles int) (*kernels.Set, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("kernels: no values to compile for %s", op.Name)
	}
	ks := make([]*kernels.Kernel, 0, len(values))
	for _, v := range values {
		k, err := m.kernel(op, v, tiles)
		if err != nil {
			return nil, fmt.Errorf("kernels: compiling %s at %d: %w", op.Name, v, err)
		}
		ks = append(ks, k)
	}
	return kernels.NewSet(ks)
}
