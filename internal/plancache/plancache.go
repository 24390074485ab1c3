// Package plancache turns re-scheduling into a lookup. Every drift re-plan,
// fault re-plan and multi-tenant repartition runs the full sched.Schedule
// pipeline from scratch — the dominant host-side wall-clock cost of serving,
// and (once charged honestly into virtual time) the reason drift thresholds
// must stay conservative. The cache keys complete plans by everything the
// scheduler actually reads — the hardware config (tile mask + bandwidth
// derates included), the policy, and the live profile — so a re-plan whose
// inputs were seen before returns the stored *sched.Plan and charges only the
// LoadPlan drain+reload, the DyCL-style compile/dispatch split applied to
// whole schedules.
//
// Two hit grades. An exact hit matches a fingerprint over the full profile
// state (batch count, per-branch unit shares, active fractions, co-activation
// counters, and every dynamic operator's frequency table) — identical
// scheduler inputs, so the cached plan is byte-identical to solving fresh. A
// nearest hit (opt-in) matches the closest cached profile within a bounded
// mean absolute per-dimension distance in quantized-snapshot space —
// approximate, bounded by the same units the drift detector thresholds in.
//
// The cache is populated online (every miss stores its solve) and ahead of
// time: Precompute solves the fault schedule's known degraded configurations
// at the live profile during bring-up, so the first tile loss or bandwidth
// window can already dispatch instead of solve. Profiles drift where the
// profiler's measurements take them, so the cache never pre-solves guessed
// ones.
//
// Unlike the rest of the serving stack, a Cache may be shared: every public
// method takes an internal mutex, so replica fleets (internal/fleet) and
// parallel experiment sweeps can hit one cache concurrently. Determinism is
// still the caller's job — the fleet serializes its accesses in event order —
// but the mutex keeps even undisciplined concurrent use memory-safe. Entries
// remember the origin that solved them (PutFor / GetOrScheduleFor), and a hit
// on another origin's entry counts in Stats.SharedHits: the cross-replica
// reuse the shared-fleet cache exists to create.
package plancache

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/profiler"
	"repro/internal/sched"
)

// HitKind classifies a Lookup outcome.
type HitKind uint8

// The lookup outcomes.
const (
	// Miss: no cached plan usable; the caller must solve fresh.
	Miss HitKind = iota
	// HitExact: the full profile fingerprint matched — the cached plan is
	// identical to what a fresh solve would produce.
	HitExact
	// HitNearest: a cached profile within the distance budget matched — the
	// plan is approximate (built from a nearby profile).
	HitNearest
)

// String returns the hit kind as a stable trace-arg label.
func (k HitKind) String() string {
	switch k {
	case HitExact:
		return "exact"
	case HitNearest:
		return "nearest"
	}
	return "miss"
}

// Config parameterizes a Cache.
type Config struct {
	// Nearest enables approximate hits: the closest cached profile under the
	// same hardware config and policy matches when within MaxDist.
	Nearest bool
	// MaxDist bounds a nearest hit: the mean absolute per-dimension
	// difference between the live and cached profile snapshots, in the same
	// units as the serving layer's drift threshold (default 0.04).
	MaxDist float64
}

func (c *Config) defaults() {
	if c.MaxDist == 0 {
		c.MaxDist = 0.04
	}
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	// ExactHits, NearestHits and Misses count Lookup outcomes; Hits is their
	// hit-side sum.
	ExactHits, NearestHits, Misses int64
	// SharedHits counts hits (exact or nearest) whose entry was stored by a
	// different origin than the requester — the cross-replica reuse a shared
	// fleet cache exists for. Always zero when every access uses one origin.
	SharedHits int64
	// Entries is the current size; AOTEntries how many of them came from
	// Precompute; Evictions how many entries the size bound pushed out.
	Entries, AOTEntries int
	// Evictions counts entries dropped by the size bound.
	Evictions int64
}

// Hits returns ExactHits + NearestHits.
func (s Stats) Hits() int64 { return s.ExactHits + s.NearestHits }

// Keyer derives cache keys from a profiler snapshot. It fixes the switch and
// dynamic-operator enumeration order at construction, so per-tenant caches
// over separate graph instances of the same model can share one keyer (the
// builder assigns identical OpIDs to identical model constructions).
type Keyer struct {
	sws  []graph.OpID
	nb   []int
	dyn  []graph.OpID
	dims int
	// hasDensity gates the density dimension: graphs with density-aware
	// operators add the quantized windowed density mean to the profile
	// snapshot and fingerprint, so plans solved for sparse traffic never
	// collide with plans solved for dense traffic. Routing-only graphs skip
	// the dimension entirely, keeping their keys byte-identical to before the
	// sparsity axis existed.
	hasDensity bool
}

// keyLevels is the quantization resolution per profile dimension of the
// nearest-matching snapshot.
const keyLevels = 32

// NewKeyer builds a keyer for graphs shaped like g, quantizing profile
// snapshots to keyLevels levels per dimension.
func NewKeyer(g *graph.Graph) *Keyer {
	k := &Keyer{sws: g.Switches(), dyn: g.DynamicOps(),
		hasDensity: len(g.DensityOps()) > 0}
	k.nb = make([]int, len(k.sws))
	for i, sw := range k.sws {
		k.nb[i] = g.Op(sw).NumBranches
		k.dims += 2 * k.nb[i]
	}
	if k.hasDensity {
		k.dims++
	}
	return k
}

// scope is the exact-match part of a key: the full hardware config (tile
// mask and bandwidth derates included — hw.Config is comparable by design)
// plus the scheduling policy. Profiles are only ever compared within one
// scope.
type scope struct {
	cfg hw.Config
	pol sched.Policy
}

// key identifies one cached plan: its scope, the quantized profile snapshot
// (nearest matching operates on this), and the full-profile fingerprint
// (exact matching operates on this).
type key struct {
	scope
	profile string
	fp      uint64
}

// makeKey computes the cache key for the given scheduler inputs. The profile
// part quantizes the profiler snapshot's unit share and active fraction of
// each switch branch; the fingerprint additionally folds in the batch count,
// the co-activation counters and every dynamic operator's frequency table —
// the complete set of profile state sched.Schedule reads.
func (k *Keyer) makeKey(cfg hw.Config, pol sched.Policy, prof *profiler.Profiler) key {
	q := make([]byte, 0, k.dims)
	h := fnvOffset64
	wf := func(f float64) { h.word(math.Float64bits(f)) }
	h.word(uint64(prof.Batches()))
	snap := prof.Snapshot()
	n := 0
	for i, sw := range k.sws {
		for b := 0; b < k.nb[i]; b++ {
			share, active := snap.Share[n], snap.Active[n]
			n++
			q = append(q, k.quantize(share), k.quantize(active))
			wf(share)
			wf(active)
			for j := b + 1; j < k.nb[i]; j++ {
				wf(prof.CoActivation(sw, b, j))
			}
		}
	}
	for _, id := range k.dyn {
		f := prof.Freq(id)
		h.word(uint64(f.Total()))
		f.EachObserved(func(v int, count int64) {
			h.word(uint64(v))
			h.word(uint64(count))
		})
	}
	if k.hasDensity {
		q = append(q, k.quantize(snap.Density))
		wf(snap.Density)
	}
	return key{scope: scope{cfg: cfg, pol: pol}, profile: string(q), fp: uint64(h)}
}

// fnv64a is 64-bit FNV-1a fed little-endian 64-bit words: the same digest
// hash/fnv's New64a computes over the same bytes, without the interface call
// and staging buffer per word.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

func (h *fnv64a) word(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x ^= fnv64a(byte(v))
		x *= fnvPrime64
		v >>= 8
	}
	*h = x
}

func (k *Keyer) quantize(v float64) byte {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return byte(math.Round(v * float64(keyLevels)))
}

// dist returns the mean absolute per-dimension difference between two
// quantized profile snapshots, de-quantized back to [0,1] units — directly
// comparable to the drift detector's divergence statistic.
func (k *Keyer) dist(a, b string) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.Inf(1)
	}
	sum := 0
	for i := 0; i < len(a); i++ {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(keyLevels) / float64(len(a))
}

// ProfileKey is an opaque quantized branch-share snapshot: one byte per
// switch branch, comparable with Dist. The fleet router matches a request's
// routing against each replica's plan key in this space — the same
// quantization the cache's nearest matching uses, restricted to the
// unit-share dimensions (volume), which is what tile allocation follows.
type ProfileKey string

// ShareKey quantizes the profiler snapshot's branch unit shares (and, on
// density-aware graphs, its density mean) as a ProfileKey. Taken right after
// a plan is solved, it identifies the traffic the plan was shaped for.
func (k *Keyer) ShareKey(prof *profiler.Profiler) ProfileKey {
	snap := prof.Snapshot()
	q := make([]byte, 0, k.dims/2+1)
	for _, share := range snap.Share {
		q = append(q, k.quantize(share))
	}
	if k.hasDensity {
		q = append(q, k.quantize(snap.Density))
	}
	return ProfileKey(q)
}

// RoutingShareKeyDensity snapshots one request's batch routing — its
// per-switch branch unit shares — and density dyn-value as a ProfileKey:
// what ShareKey would converge to over a window of batches routed exactly
// like rt at that density. This is how the fleet router fingerprints an
// individual pre-routed request without touching any profiler state. On
// density-aware graphs the quantized density joins the key in the same
// position ShareKey puts the windowed density mean, so a sparse request
// measures closest to the replica whose plan was shaped for sparse traffic.
// Routing-only graphs ignore the density. An unset density (<= 0) counts as
// dense.
func (k *Keyer) RoutingShareKeyDensity(rt graph.BatchRouting, density float64) ProfileKey {
	q := make([]byte, 0, k.dims/2+1)
	for i, sw := range k.sws {
		branch := rt[sw].Branch
		total := 0
		for _, units := range branch {
			total += len(units)
		}
		for b := 0; b < k.nb[i]; b++ {
			share := 0.0
			if total > 0 && b < len(branch) {
				share = float64(len(branch[b])) / float64(total)
			}
			q = append(q, k.quantize(share))
		}
	}
	if k.hasDensity {
		if density <= 0 || density > 1 {
			density = 1
		}
		q = append(q, k.quantize(density))
	}
	return ProfileKey(q)
}

// Dist returns the mean absolute per-dimension difference between two
// profile keys, de-quantized to [0,1] units (the drift detector's scale).
// Keys of mismatched shape are infinitely far apart.
func (k *Keyer) Dist(a, b ProfileKey) float64 { return k.dist(string(a), string(b)) }

type entry struct {
	key    key
	plan   *sched.Plan
	aot    bool
	origin string // who solved it ("" outside fleets)
}

// bucket holds every entry of one scope: an exact index by fingerprint plus
// the ordered entry list the nearest scan walks.
type bucket struct {
	byFP    map[uint64]*entry
	entries []*entry
}

// Cache is the plan-variant cache. Safe for concurrent use: every public
// method holds an internal mutex (GetOrScheduleFor keeps it across the fresh
// solve, so concurrent misses on the same key never race a double solve).
type Cache struct {
	mu      sync.Mutex
	keyer   *Keyer
	cfg     Config
	buckets map[scope]*bucket
	order   []*entry // insertion order, for eviction
	// maxEntries bounds the cache; beyond it the oldest online entry is
	// evicted first (AOT-precomputed entries survive until only they
	// remain).
	maxEntries int

	exactHits, nearestHits, misses, sharedHits, evictions int64
	aotEntries                                            int
}

// New builds an empty cache over the given keyer.
func New(keyer *Keyer, cfg Config) *Cache {
	cfg.defaults()
	return &Cache{keyer: keyer, cfg: cfg, buckets: map[scope]*bucket{}, maxEntries: 512}
}

// Keyer returns the keyer the cache was built over (shared by per-tenant
// caches of the same model).
func (c *Cache) Keyer() *Keyer { return c.keyer }

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// Stats returns the cache's lifetime counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		ExactHits:   c.exactHits,
		NearestHits: c.nearestHits,
		Misses:      c.misses,
		SharedHits:  c.sharedHits,
		Entries:     len(c.order),
		AOTEntries:  c.aotEntries,
		Evictions:   c.evictions,
	}
}

// Lookup returns the cached plan for the given scheduler inputs, if any. An
// exact hit requires the full profile fingerprint to match under the same
// hardware config and policy; with Config.Nearest enabled, the closest
// cached profile within MaxDist matches approximately.
func (c *Cache) Lookup(cfg hw.Config, pol sched.Policy, prof *profiler.Profiler) (*sched.Plan, HitKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, kind := c.lookup(c.keyer.makeKey(cfg, pol, prof), "")
	if e == nil {
		return nil, kind
	}
	return e.plan, kind
}

func (c *Cache) lookup(k key, origin string) (*entry, HitKind) {
	b := c.buckets[k.scope]
	if b == nil {
		c.misses++
		return nil, Miss
	}
	if e, ok := b.byFP[k.fp]; ok {
		c.exactHits++
		if e.origin != origin {
			c.sharedHits++
		}
		return e, HitExact
	}
	if c.cfg.Nearest {
		var best *entry
		bestDist := math.Inf(1)
		for _, e := range b.entries {
			if d := c.keyer.dist(k.profile, e.key.profile); d < bestDist {
				bestDist, best = d, e
			}
		}
		if best != nil && bestDist <= c.cfg.MaxDist {
			c.nearestHits++
			if best.origin != origin {
				c.sharedHits++
			}
			return best, HitNearest
		}
	}
	c.misses++
	return nil, Miss
}

// PutFor stores a plan under the given scheduler inputs, replacing the plan
// of any entry with the identical fingerprint. The entry remembers origin,
// who solved it, so later hits by other origins count in Stats.SharedHits.
// A refresh of an existing fingerprint keeps the original origin — the
// first solver gets the credit, and identical bring-up seeds across a fleet
// stay one entry.
func (c *Cache) PutFor(origin string, cfg hw.Config, pol sched.Policy, prof *profiler.Profiler, plan *sched.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(c.keyer.makeKey(cfg, pol, prof), plan, false, origin)
}

func (c *Cache) put(k key, plan *sched.Plan, aot bool, origin string) {
	b := c.buckets[k.scope]
	if b == nil {
		b = &bucket{byFP: map[uint64]*entry{}}
		c.buckets[k.scope] = b
	}
	if old, ok := b.byFP[k.fp]; ok {
		old.plan = plan // refresh in place; identity (key and origin) unchanged
		return
	}
	e := &entry{key: k, plan: plan, aot: aot, origin: origin}
	b.byFP[k.fp] = e
	b.entries = append(b.entries, e)
	c.order = append(c.order, e)
	if aot {
		c.aotEntries++
	}
	for len(c.order) > c.maxEntries {
		c.evictOldest()
	}
}

// evictOldest drops the oldest online entry, falling back to the oldest AOT
// entry only when nothing else remains (precomputed coverage is the cache's
// long-lived value).
func (c *Cache) evictOldest() {
	victim := -1
	for i, e := range c.order {
		if !e.aot {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
	}
	e := c.order[victim]
	c.order = append(c.order[:victim], c.order[victim+1:]...)
	b := c.buckets[e.key.scope]
	delete(b.byFP, e.key.fp)
	for i, be := range b.entries {
		if be == e {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			break
		}
	}
	if len(b.entries) == 0 {
		delete(c.buckets, e.key.scope)
	}
	if e.aot {
		c.aotEntries--
	}
	c.evictions++
}

// GetOrScheduleFor is the serving layers' re-plan entry point: look the
// inputs up, and on a miss solve fresh through comp — the compile memo of
// the caller's graph — and store the result. The returned HitKind
// tells the caller what to charge — a miss costs a host-side solve, a hit
// only the plan swap. origin tags the requester (a replica name in a fleet,
// "" elsewhere): misses store the solved plan under that origin, and hits
// on another origin's entry count in Stats.SharedHits. The cache mutex is
// held across the fresh solve, so concurrent misses on one key serialize
// instead of double-solving.
func (c *Cache) GetOrScheduleFor(origin string, cfg hw.Config, comp *sched.Compiler, pol sched.Policy, prof *profiler.Profiler) (*sched.Plan, HitKind, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.keyer.makeKey(cfg, pol, prof)
	if e, kind := c.lookup(k, origin); kind != Miss {
		if origin != "" {
			// Copy-on-hit for fleet origins: a *sched.Plan carries a
			// plan-scoped eval memo and on-demand kernel stores, neither
			// safe for concurrent use, so a replica must never run a plan
			// object another replica may also be running. Cross-origin hits
			// are the obvious case; self-hits need it too, because a PutFor
			// refresh on an identical fingerprint swaps another replica's
			// live plan into this origin's entry (identity, including
			// origin, is kept on refresh). Cloning every fleet hit hands
			// each replica a private object. The non-fleet paths (origin ""
			// everywhere) keep the stored pointer, bit-for-bit what they
			// were.
			return e.plan.Clone(), kind, nil
		}
		return e.plan, kind, nil
	}
	plan, err := comp.Schedule(cfg, pol, prof)
	if err != nil {
		return nil, Miss, fmt.Errorf("plancache: fresh solve: %w", err)
	}
	c.put(k, plan, false, origin)
	return plan, Miss, nil
}
