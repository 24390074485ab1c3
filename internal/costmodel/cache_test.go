package costmodel

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/hw"
)

// randOp builds a random operator shape. Matrix kinds get a consistent
// iteration space (MACsPerUnit equals the Space product, as Build would
// enforce); vector kinds leave Space zero. Each call gets a distinct ID — the
// cache keys on it, and two ops may not share an ID within one cache scope.
func randOp(r *rand.Rand, id int) *graph.Op {
	kinds := []graph.Kind{
		graph.KindConv2D, graph.KindMatMul, graph.KindAttention, graph.KindGate,
		graph.KindElementwise, graph.KindPool, graph.KindLayerNorm, graph.KindSoftmax,
	}
	op := &graph.Op{
		ID:       graph.OpID(id),
		Name:     fmt.Sprintf("rand%d", id),
		Kind:     kinds[r.Intn(len(kinds))],
		MaxUnits: 1 + r.Intn(256),
	}
	switch op.Kind {
	case graph.KindConv2D, graph.KindMatMul, graph.KindAttention, graph.KindGate:
		c, m := 1+r.Intn(512), 1+r.Intn(512)
		h, w := 1+r.Intn(28), 1+r.Intn(28)
		rr, s := 1, 1
		if op.Kind == graph.KindConv2D {
			rr = 1 + 2*r.Intn(3) // 1, 3, 5
			s = rr
		}
		op.Space = [6]int{c, m, h, w, rr, s}
		op.MACsPerUnit = int64(c) * int64(m) * int64(h) * int64(w) * int64(rr) * int64(s)
	default:
		op.MACsPerUnit = int64(1 + r.Intn(1<<16))
	}
	op.InBytesPerUnit = int64(1 + r.Intn(1<<16))
	op.OutBytesPerUnit = int64(1 + r.Intn(1<<16))
	op.WeightBytes = int64(r.Intn(1 << 20))
	return op
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCacheMatchesUncached is the memoization soundness property: over
// randomized operator shapes and argument tuples, the cached EvaluateDensity
// at density 1 must return exactly what the package-level Evaluate returns —
// values and errors alike — on both the miss path and the hit path. (The compile memo
// has its own property test in internal/sched.)
func TestCacheMatchesUncached(t *testing.T) {
	cfg := hw.Default()
	r := rand.New(rand.NewSource(11))
	c := NewCache(cfg)

	for i := 0; i < 200; i++ {
		op := randOp(r, i)
		tiles := 1 + r.Intn(16)
		compiled := 1 + r.Intn(op.MaxUnits)

		blk, _, err := Optimize(cfg, op, compiled, tiles)
		if err != nil {
			continue
		}

		for j := 0; j < 4; j++ {
			actual := r.Intn(compiled + 2) // may exceed compiled: error path
			fitting := r.Intn(2) == 0
			ev, err := Evaluate(cfg, op, blk, compiled, actual, tiles, fitting)
			for trial := 0; trial < 2; trial++ { // miss, then hit
				gev, gerr := c.EvaluateDensity(op, blk, compiled, actual, tiles, fitting, 1)
				if gev != ev || errString(gerr) != errString(err) {
					t.Fatalf("op %s actual=%d fitting=%v trial %d: cached Evaluate diverged:\n(%+v, %v)\nwant (%+v, %v)",
						op, actual, fitting, trial, gev, gerr, ev, err)
				}
			}
		}
	}

	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("property test exercised hits=%d misses=%d; want both paths", hits, misses)
	}
	if c.Len() == 0 {
		t.Fatal("cache retained no entries")
	}
}

// TestCacheRejectsNothingAcrossConfigs pins the config-binding contract: the
// same key evaluated under a different hardware config must come from a
// different cache and may differ.
func TestCacheConfigBinding(t *testing.T) {
	op := convOp(t, 128)
	small := hw.Default()
	big := hw.Default()
	big.PERows *= 2

	cs, cb := NewCache(small), NewCache(big)
	if cs.Config() == cb.Config() {
		t.Fatal("configs should differ")
	}
	blk, _, err := Optimize(small, op, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := cs.EvaluateDensity(op, blk, 128, 64, 8, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(small, op, blk, 128, 64, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if evs != want {
		t.Fatalf("cached eval %+v, want %+v", evs, want)
	}
}

// TestEvalKeyRange checks the compact eval memo key: it stays 32 bytes, an
// input outside int32 bypasses the memo and still returns the uncached result
// (never the result of the in-range key its low bits would alias), and
// failures land in the side map, which stays nil until the first one.
func TestEvalKeyRange(t *testing.T) {
	if n := unsafe.Sizeof(evalKey{}); n != 32 {
		t.Fatalf("evalKey is %d bytes, want 32", n)
	}
	if strconv.IntSize < 64 {
		t.Skip("every int fits an int32 field")
	}
	op := &graph.Op{ID: 7, Name: "mm", Kind: graph.KindMatMul, MaxUnits: 64,
		Space: [6]int{64, 64, 1, 1, 1, 1}, MACsPerUnit: 64 * 64, InBytesPerUnit: 64, OutBytesPerUnit: 64, WeightBytes: 4096}
	blk := Blocking{SplitN: 2, SplitM: 2, NBlk: 4, WeightResident: true}
	c := NewCache(hw.Default())
	if _, err := c.EvaluateDensity(op, blk, 8, 8, 4, true, 1); err != nil {
		t.Fatal(err)
	}
	if c.errs != nil {
		t.Fatal("error map allocated before any failure")
	}
	const big = 1 << 32 // truncates to 0
	for _, tc := range []struct {
		blk                     Blocking
		compiled, actual, tiles int
	}{
		{blk, big + 8, 8, 4},
		{blk, 8, 8, big + 4},
		{Blocking{SplitN: big + 2, SplitM: 2, NBlk: 4, WeightResident: true}, 8, 8, 4},
	} {
		want, werr := EvaluateDensity(c.cfg, op, tc.blk, tc.compiled, tc.actual, tc.tiles, true, 1)
		n := c.Len()
		for trial := 0; trial < 2; trial++ {
			got, gerr := c.EvaluateDensity(op, tc.blk, tc.compiled, tc.actual, tc.tiles, true, 1)
			if got != want || errString(gerr) != errString(werr) {
				t.Fatalf("%+v: cached %+v, %v; want %+v, %v", tc, got, gerr, want, werr)
			}
		}
		if c.Len() != n {
			t.Fatalf("%+v: out-of-range evaluation memoized", tc)
		}
	}
	// A failing evaluation (more splits than tiles) is memoized as an error.
	bad := Blocking{SplitN: 4, SplitM: 4, NBlk: 1}
	_, werr := EvaluateDensity(c.cfg, op, bad, 8, 8, 4, true, 1)
	if werr == nil {
		t.Fatal("want an error for 16 splits on 4 tiles")
	}
	h0, _ := c.Stats()
	for trial := 0; trial < 2; trial++ {
		if _, err := c.EvaluateDensity(op, bad, 8, 8, 4, true, 1); errString(err) != errString(werr) {
			t.Fatalf("trial %d: error %v, want %v", trial, err, werr)
		}
	}
	if h, _ := c.Stats(); h != h0+1 || len(c.errs) != 1 {
		t.Fatalf("failed evaluation not memoized: %d hits, %d errors", h-h0, len(c.errs))
	}
}
