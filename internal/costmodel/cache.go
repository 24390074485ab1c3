package costmodel

import (
	"repro/internal/graph"
	"repro/internal/hw"
)

// Cache memoizes EvaluateDensity results for one fixed hardware
// configuration and one operator graph. Evaluation is pure: its result
// depends only on the hardware config, the operator's work model, and the
// scalar arguments — so within one (cfg, graph) scope a compact key of
// (operator ID, blocking, sizes, policy bit, density bucket) identifies the
// result exactly.
//
// The simulator re-evaluates identical keys constantly: every batch of a run
// window re-costs each entity at its dyn value through
// Plan.EvaluateEntityDensity, and tile-sharing pairs re-score the same option
// triples. Memoization turns all of that into map hits. (Kernel compilation — the Optimize blocking
// search — is memoized one level up, per graph bring-up, by sched.Compiler.)
//
// A Cache is deliberately not safe for concurrent use: the parallel
// experiment runner gives every simulation its own plan (and therefore its
// own cache), which keeps the hot path lock-free and the race detector
// quiet. Scoping the cache to one graph is what makes keying by graph.OpID
// sound — two graphs may reuse IDs for different operators.
type Cache struct {
	cfg  hw.Config
	eval map[evalKey]evalResult

	hits, misses int64
}

// evalKey identifies one Evaluate invocation within a (cfg, graph) scope.
// density is the quantized density bucket (DensityBucket); the dense Evaluate
// path always keys the top bucket, so it shares entries with density-1 (and
// unset-density) EvaluateDensity calls.
type evalKey struct {
	op       graph.OpID
	blk      Blocking
	compiled int
	actual   int
	tiles    int
	fitting  bool
	density  uint8
}

type evalResult struct {
	ev  Eval
	err error
}

// NewCache returns an empty cache bound to cfg.
func NewCache(cfg hw.Config) *Cache {
	return &Cache{cfg: cfg, eval: map[evalKey]evalResult{}}
}

// Config returns the hardware configuration the cache is bound to. Callers
// holding a cache across configuration changes must discard it when the
// config differs — a stale cfg would silently return costs for the wrong
// hardware.
func (c *Cache) Config() hw.Config { return c.cfg }

// Stats reports cache hits and misses so far (tests assert the cache
// actually engages on the hot path).
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }

// Len reports the number of memoized entries.
func (c *Cache) Len() int { return len(c.eval) }
