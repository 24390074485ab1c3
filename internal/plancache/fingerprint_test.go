package plancache

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/profiler"
	"repro/internal/sched"
)

// fpGraph builds a one-switch, three-branch graph for fingerprint tests;
// sparse marks one branch operator density-aware so the keyer arms the
// density dimension.
func fpGraph(t *testing.T, sparse bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("fp", 1)
	in := b.Input("in", 512, 8)
	gate := b.Gate("gate", in, 32, 3)
	br := b.Switch("sw", in, gate, 3)
	agg := b.SeqMatMul("agg", br[0], 16, 16, 16)
	if sparse {
		b.Sparse(agg)
	}
	e1 := b.Elementwise("e1", 512, br[1])
	e2 := b.Elementwise("e2", 512, br[2])
	m := b.Merge("m", br, agg, e1, e2)
	b.Output("out", m)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fpObserve feeds one batch routed per branches (unit-index lists per branch,
// concatenation must cover 0..n-1) at the given density into prof.
func fpObserve(t *testing.T, g *graph.Graph, prof *profiler.Profiler, branches [][]int32, density float64) {
	t.Helper()
	n := 0
	for _, br := range branches {
		n += len(br)
	}
	rt := graph.BatchRouting{{Branch: branches}}
	um, err := g.AssignUnits(nil, n, rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.ObserveBatch(um, rt, density); err != nil {
		t.Fatal(err)
	}
}

// clearFreq resets every dynamic operator's frequency table so the Freq
// family contributes identically to both sides of a pair — observation
// sequences that differ on purpose along a profiler family would otherwise
// also differ through the tables ObserveBatch feeds.
func clearFreq(g *graph.Graph, prof *profiler.Profiler) {
	for _, id := range g.DynamicOps() {
		prof.Freq(id).Reset()
	}
}

// TestFingerprintDistinguishesEveryProfileFamily is the regression test
// behind sched.KeyedProfileStats: for every profile-statistic family the
// scheduler reads, two profiles that differ only along that family must get
// different cache keys. A family missing from the fingerprint would let a
// stale plan serve traffic the scheduler would plan differently for.
func TestFingerprintDistinguishesEveryProfileFamily(t *testing.T) {
	cfg := hw.Default()
	pol := sched.Adyna()
	keys := func(sparse bool, feed func(ga, gb *graph.Graph, pa, pb *profiler.Profiler)) (key, key) {
		ga, gb := fpGraph(t, sparse), fpGraph(t, sparse)
		pa, pb := profiler.New(ga), profiler.New(gb)
		feed(ga, gb, pa, pb)
		clearFreq(ga, pa)
		clearFreq(gb, pb)
		return NewKeyer(ga).makeKey(cfg, pol, pa), NewKeyer(gb).makeKey(cfg, pol, pb)
	}

	t.Run("Identity", func(t *testing.T) {
		ka, kb := keys(false, func(ga, gb *graph.Graph, pa, pb *profiler.Profiler) {
			fpObserve(t, ga, pa, [][]int32{{0, 1}, {2}, {3}}, 0)
			fpObserve(t, gb, pb, [][]int32{{0, 1}, {2}, {3}}, 0)
		})
		if ka != kb {
			t.Fatal("identical profiles produced different keys")
		}
	})

	t.Run("Batches", func(t *testing.T) {
		// Same fractions throughout; only the batch count differs.
		ka, kb := keys(false, func(ga, gb *graph.Graph, pa, pb *profiler.Profiler) {
			fpObserve(t, ga, pa, [][]int32{{0, 1}, {2}, {3}}, 0)
			fpObserve(t, gb, pb, [][]int32{{0, 1}, {2}, {3}}, 0)
			fpObserve(t, gb, pb, [][]int32{{0, 1}, {2}, {3}}, 0)
		})
		if ka == kb {
			t.Fatal("fingerprint ignores the batch count")
		}
	})

	t.Run("BranchActiveFraction", func(t *testing.T) {
		// Equal unit shares (2,2,1), equal co-activation (only the 0-1 pair,
		// once), equal batch counts; the active fractions alone differ.
		ka, kb := keys(false, func(ga, gb *graph.Graph, pa, pb *profiler.Profiler) {
			fpObserve(t, ga, pa, [][]int32{{0}, {1, 2}, {}}, 0)
			fpObserve(t, ga, pa, [][]int32{{}, {}, {0}}, 0)
			fpObserve(t, ga, pa, [][]int32{{0}, {}, {}}, 0)
			fpObserve(t, gb, pb, [][]int32{{0, 1}, {2}, {}}, 0)
			fpObserve(t, gb, pb, [][]int32{{}, {}, {0}}, 0)
			fpObserve(t, gb, pb, [][]int32{{}, {0}, {}}, 0)
		})
		if ka == kb {
			t.Fatal("fingerprint ignores branch active fractions")
		}
	})

	t.Run("CoActivation", func(t *testing.T) {
		// Equal shares (2,2,2), equal active counts (2,2,2), equal batch
		// counts; only which branches fired together differs — exactly the
		// statistic LeastCoActivePair reads, and the quantized snapshot
		// cannot see it, so only the fingerprint keeps these plans apart.
		ka, kb := keys(false, func(ga, gb *graph.Graph, pa, pb *profiler.Profiler) {
			fpObserve(t, ga, pa, [][]int32{{0}, {1}, {2}}, 0)
			fpObserve(t, ga, pa, [][]int32{{0}, {}, {}}, 0)
			fpObserve(t, ga, pa, [][]int32{{}, {0}, {}}, 0)
			fpObserve(t, ga, pa, [][]int32{{}, {}, {0}}, 0)
			fpObserve(t, gb, pb, [][]int32{{0}, {1}, {}}, 0)
			fpObserve(t, gb, pb, [][]int32{{}, {}, {0}}, 0)
			fpObserve(t, gb, pb, [][]int32{{0}, {}, {1}}, 0)
			fpObserve(t, gb, pb, [][]int32{{}, {0}, {}}, 0)
		})
		if ka.profile != kb.profile {
			t.Fatal("co-activation pair leaked into the quantized snapshot; the test no longer isolates the fingerprint")
		}
		if ka == kb {
			t.Fatal("fingerprint ignores co-activation counters")
		}
	})

	t.Run("OpDensityMean", func(t *testing.T) {
		// Identical routing; only the observed density differs.
		ka, kb := keys(true, func(ga, gb *graph.Graph, pa, pb *profiler.Profiler) {
			fpObserve(t, ga, pa, [][]int32{{0, 1}, {2}, {3}}, 1)
			fpObserve(t, gb, pb, [][]int32{{0, 1}, {2}, {3}}, 0.5)
		})
		if ka == kb {
			t.Fatal("fingerprint ignores the windowed density mean")
		}
	})

	t.Run("Freq", func(t *testing.T) {
		// No profiler state at all; only a dynamic operator's frequency
		// table differs.
		ga, gb := fpGraph(t, false), fpGraph(t, false)
		pa, pb := profiler.New(ga), profiler.New(gb)
		clearFreq(ga, pa)
		clearFreq(gb, pb)
		pa.Freq(ga.DynamicOps()[0]).Observe(1)
		pb.Freq(gb.DynamicOps()[0]).Observe(2)
		ka := NewKeyer(ga).makeKey(cfg, pol, pa)
		kb := NewKeyer(gb).makeKey(cfg, pol, pb)
		if ka == kb {
			t.Fatal("fingerprint ignores the frequency tables")
		}
	})

	t.Run("RoutingShareKeyDensity", func(t *testing.T) {
		// The routing-side key fleet affinity matches on: density separates
		// requests on density-aware graphs, unset density means dense, and
		// routing-only graphs ignore the axis entirely.
		g := fpGraph(t, true)
		k := NewKeyer(g)
		rt := graph.BatchRouting{{Branch: [][]int32{{0, 1}, {2}, {3}}}}
		if k.RoutingShareKeyDensity(rt, 0.2) == k.RoutingShareKeyDensity(rt, 1) {
			t.Fatal("sparse and dense requests share one affinity key on a density-aware graph")
		}
		if k.RoutingShareKeyDensity(rt, 0) != k.RoutingShareKeyDensity(rt, 1) {
			t.Fatal("unset density keyed differently from dense")
		}
		gr := fpGraph(t, false)
		kr := NewKeyer(gr)
		rtr := graph.BatchRouting{{Branch: [][]int32{{0, 1}, {2}, {3}}}}
		if kr.RoutingShareKeyDensity(rtr, 0.2) != kr.RoutingShareKeyDensity(rtr, 1) {
			t.Fatal("routing-only graph keyed on density")
		}
	})

	t.Run("DensityDimensionGated", func(t *testing.T) {
		// A routing-only graph must key byte-identically whatever densities
		// batches claim — the dimension only exists for density-aware graphs.
		ka, kb := keys(false, func(ga, gb *graph.Graph, pa, pb *profiler.Profiler) {
			fpObserve(t, ga, pa, [][]int32{{0, 1}, {2}, {3}}, 1)
			fpObserve(t, gb, pb, [][]int32{{0, 1}, {2}, {3}}, 0.25)
		})
		if ka != kb {
			t.Fatal("routing-only graph keyed on density")
		}
	})
}

// referenceFP is the fingerprint as first written: hash/fnv's FNV-1a fed
// eight little-endian bytes per word through the hash.Hash interface, with
// the frequency tables read through Distribution. makeKey must reproduce it
// bit for bit — exported caches store fingerprints.
func referenceFP(k *Keyer, prof *profiler.Profiler) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	w64(uint64(prof.Batches()))
	share := prof.Snapshot().Share
	for i, sw := range k.sws {
		for b := 0; b < k.nb[i]; b++ {
			wf(share[0])
			share = share[1:]
			wf(prof.BranchActiveFraction(sw, b))
			for j := b + 1; j < k.nb[i]; j++ {
				wf(prof.CoActivation(sw, b, j))
			}
		}
	}
	for _, id := range k.dyn {
		f := prof.Freq(id)
		w64(uint64(f.Total()))
		vals, freq := f.Distribution()
		for i, v := range vals {
			w64(uint64(v))
			w64(uint64(freq[i]))
		}
	}
	if k.hasDensity {
		wf(prof.OpDensityMean())
	}
	return h.Sum64()
}

// TestFingerprintMatchesHashFNV pins the inlined FNV-1a fingerprint to the
// hash/fnv reference over empty and warmed profiles of a routing model and a
// density-aware one.
func TestFingerprintMatchesHashFNV(t *testing.T) {
	cfg := hw.Default()
	pol := sched.Adyna()
	for _, model := range []string{"moe", "gcn"} {
		for _, batches := range []int{0, 3, 12} {
			w, prof := warmWorkload(t, model, batches)
			k := NewKeyer(w.Graph)
			got := k.makeKey(cfg, pol, prof).fp
			if want := referenceFP(k, prof); got != want {
				t.Fatalf("%s after %d batches: fingerprint %#x, hash/fnv reference %#x", model, batches, got, want)
			}
		}
	}
}

// TestWarmKeyAllocations bounds the warm lookup's key derivation: the
// quantized snapshot and its string are the only allocations.
func TestWarmKeyAllocations(t *testing.T) {
	w, prof := warmWorkload(t, "moe", 12)
	k := NewKeyer(w.Graph)
	cfg, pol := hw.Default(), sched.Adyna()
	if n := testing.AllocsPerRun(20, func() { k.makeKey(cfg, pol, prof) }); n > 2 {
		t.Fatalf("makeKey allocates %.0f times, want <= 2", n)
	}
}
