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
	eval map[evalKey]Eval
	// errs holds the evaluations that failed, which are as deterministic as
	// the ones that succeed; nil until the first failure.
	errs map[evalKey]error

	hits, misses int64
}

// evalKey identifies one Evaluate invocation within a (cfg, graph) scope in
// 32 bytes: int32 fields, which keeps the memo's buckets small (see
// newEvalKey). density is the quantized density bucket (DensityBucket); the
// dense Evaluate path always keys the top bucket, so it shares entries with
// density-1 (and unset-density) EvaluateDensity calls.
type evalKey struct {
	op                      int32
	splitN, splitM, nblk    int32
	compiled, actual, tiles int32
	resident, fitting       bool
	density                 uint8
}

// newEvalKey builds the key of one evaluation. ok is false when an integer
// input does not fit in an int32; such an evaluation bypasses the memo
// instead of aliasing another key.
func newEvalKey(op graph.OpID, blk Blocking, compiled, actual, tiles int, fitting bool, density uint8) (k evalKey, ok bool) {
	for _, v := range [...]int{int(op), blk.SplitN, blk.SplitM, blk.NBlk, compiled, actual, tiles} {
		if v != int(int32(v)) {
			return evalKey{}, false
		}
	}
	return evalKey{
		op:     int32(op),
		splitN: int32(blk.SplitN), splitM: int32(blk.SplitM), nblk: int32(blk.NBlk),
		compiled: int32(compiled), actual: int32(actual), tiles: int32(tiles),
		resident: blk.WeightResident, fitting: fitting, density: density,
	}, true
}

// NewCache returns an empty cache bound to cfg.
func NewCache(cfg hw.Config) *Cache {
	return &Cache{cfg: cfg, eval: map[evalKey]Eval{}}
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
func (c *Cache) Len() int { return len(c.eval) + len(c.errs) }
