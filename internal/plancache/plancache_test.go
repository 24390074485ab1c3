package plancache

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/workload"
)

// warmWorkload builds a model plus a profiler warmed on its own trace, the
// standard scheduler input the cache keys over.
func warmWorkload(t testing.TB, name string, batches int) (*models.Workload, *profiler.Profiler) {
	t.Helper()
	w, err := models.ByName(name, 32)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(w.Graph)
	observe(t, w, prof, workload.NewSource(1), batches)
	return w, prof
}

// newBounded builds a cache over graphs shaped like g that holds at most n
// plans.
func newBounded(g *graph.Graph, cfg Config, n int) *Cache {
	c := New(NewKeyer(g), cfg)
	c.maxEntries = n
	return c
}

// observe feeds n generated batches into prof.
func observe(t testing.TB, w *models.Workload, prof *profiler.Profiler, src *workload.Source, n int) {
	t.Helper()
	for _, b := range w.GenTrace(src, n, 32) {
		units, err := w.Graph.AssignUnits(nil, b.Units, b.Routing)
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.ObserveBatch(units, b.Routing, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func encodePlan(t testing.TB, p *sched.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExactHitReturnsStoredPlan(t *testing.T) {
	w, prof := warmWorkload(t, "moe", 12)
	cfg := hw.Default()
	pol := sched.Adyna()
	plan, err := sched.Schedule(cfg, w.Graph, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewKeyer(w.Graph), Config{})
	c.PutFor("", cfg, pol, prof, plan)

	got, kind := c.Lookup(cfg, pol, prof)
	if kind != HitExact || got != plan {
		t.Fatalf("lookup at identical inputs: kind=%v plan=%p want exact %p", kind, got, plan)
	}
	// A different hardware scope must miss even with the same profile.
	masked := cfg
	masked.FailedTiles = hw.NewTileMask(0, 1)
	if _, kind := c.Lookup(masked, pol, prof); kind != Miss {
		t.Fatalf("masked-config lookup returned %v, want miss", kind)
	}
	// And so must a different policy.
	if _, kind := c.Lookup(cfg, sched.MTile(), prof); kind != Miss {
		t.Fatalf("other-policy lookup returned %v, want miss", kind)
	}
	st := c.Stats()
	if st.ExactHits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 exact / 2 misses / 1 entry", st)
	}
}

func TestNearestHitRespectsDistanceBound(t *testing.T) {
	w, prof := warmWorkload(t, "moe", 12)
	cfg := hw.Default()
	pol := sched.Adyna()
	plan, err := sched.Schedule(cfg, w.Graph, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	exact := New(NewKeyer(w.Graph), Config{})
	exact.PutFor("", cfg, pol, prof, plan)
	near := New(NewKeyer(w.Graph), Config{Nearest: true, MaxDist: 0.2})
	near.PutFor("", cfg, pol, prof, plan)
	tight := New(NewKeyer(w.Graph), Config{Nearest: true, MaxDist: 1e-9})
	tight.PutFor("", cfg, pol, prof, plan)

	// Nudge the profile: a few more batches from a different stream.
	observe(t, w, prof, workload.NewSource(99), 3)

	if _, kind := exact.Lookup(cfg, pol, prof); kind != Miss {
		t.Fatalf("exact-only cache returned %v on a shifted profile, want miss", kind)
	}
	if _, kind := near.Lookup(cfg, pol, prof); kind != HitNearest {
		t.Fatalf("nearest cache returned %v, want nearest hit", kind)
	}
	if _, kind := tight.Lookup(cfg, pol, prof); kind != Miss {
		t.Fatalf("near-zero distance budget returned %v, want miss", kind)
	}
}

// TestGetOrScheduleByteIdentical is the exact-hit correctness contract: the
// plan a warm cache dispatches encodes byte-for-byte the same as a fresh
// sched.Schedule run on the identical inputs.
func TestGetOrScheduleByteIdentical(t *testing.T) {
	w, prof := warmWorkload(t, "moe", 12)
	comp := sched.NewCompiler(w.Graph)
	cfg := hw.Default()
	pol := sched.Adyna()
	c := New(NewKeyer(w.Graph), Config{})

	cold, kind, err := c.GetOrScheduleFor("", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != Miss {
		t.Fatalf("cold lookup returned %v, want miss", kind)
	}
	warm, kind, err := c.GetOrScheduleFor("", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != HitExact {
		t.Fatalf("warm lookup returned %v, want exact hit", kind)
	}
	fresh, err := sched.Schedule(cfg, w.Graph, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePlan(t, warm), encodePlan(t, fresh)) {
		t.Fatal("cached plan is not byte-identical to a fresh solve at the same inputs")
	}
	if !bytes.Equal(encodePlan(t, cold), encodePlan(t, warm)) {
		t.Fatal("miss-path plan differs from its own cached copy")
	}
}

func TestEvictionPrefersOnlineEntries(t *testing.T) {
	w, prof := warmWorkload(t, "moe", 8)
	cfg := hw.Default()
	pol := sched.Adyna()
	plan, err := sched.Schedule(cfg, w.Graph, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	c := newBounded(w.Graph, Config{}, 3)
	// Two AOT entries, then online churn past the bound: the AOT pair must
	// survive while online entries rotate out.
	keyAt := func(n int) key {
		dc := cfg
		dc.FailedTiles = hw.NewTileMask(n)
		return c.keyer.makeKey(dc, pol, prof)
	}
	c.put(keyAt(0), plan, true, "")
	c.put(keyAt(1), plan, true, "")
	for n := 2; n < 8; n++ {
		c.put(keyAt(n), plan, false, "")
	}
	st := c.Stats()
	if st.Entries != 3 || st.AOTEntries != 2 {
		t.Fatalf("stats %+v, want 3 entries with both AOT survivors", st)
	}
	if st.Evictions != 5 {
		t.Fatalf("evictions %d, want 5", st.Evictions)
	}
	if _, ok := c.peek(keyAt(0)); !ok {
		t.Fatal("AOT entry evicted while online entries remained")
	}
	if _, ok := c.peek(keyAt(7)); !ok {
		t.Fatal("newest online entry missing")
	}
	// Once only AOT entries remain, the bound still holds: they go too.
	tiny := newBounded(w.Graph, Config{}, 1)
	tiny.put(keyAt(0), plan, true, "")
	tiny.put(keyAt(1), plan, true, "")
	if st := tiny.Stats(); st.Entries != 1 || st.AOTEntries != 1 {
		t.Fatalf("AOT-only cache stats %+v, want 1 entry", st)
	}
}

// TestPrecomputeCoversFaultWindows checks AOT bring-up: each distinct
// degraded config the fault schedule steps through is pre-solved once at the
// live profile (the repaired, healthy chip is not), every one of them is an
// exact hit, the live profile/frequency state is untouched, and a schedule-
// free precompute adds nothing.
func TestPrecomputeCoversFaultWindows(t *testing.T) {
	w, prof := warmWorkload(t, "moe", 12)
	comp := sched.NewCompiler(w.Graph)
	cfg := hw.Default()
	pol := sched.Adyna()
	// hbm window (then healthy again), a brownout over a permanent loss, and
	// the permanent loss alone once the brownout repairs: three configs.
	fs, err := faults.ParseSpec("hbm@1e6:factor=0.5,until=2e6;fail@3e6:tiles=0-3;brownout@4e6:tiles=8-11,repair=1e6")
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewKeyer(w.Graph), Config{})
	before := c.keyer.makeKey(cfg, pol, prof)

	if added := c.Precompute(cfg, comp, pol, prof, nil); added != 0 {
		t.Fatalf("precompute without a fault schedule added %d plans", added)
	}
	added := c.Precompute(cfg, comp, pol, prof, fs)
	if added != 3 {
		t.Fatalf("precompute added %d plans, want one per distinct degraded config (3)", added)
	}
	st := c.Stats()
	if st.AOTEntries != added || st.Entries != added {
		t.Fatalf("stats %+v after adding %d AOT plans", st, added)
	}
	if after := c.keyer.makeKey(cfg, pol, prof); after != before {
		t.Fatal("precompute mutated the live profile / frequency tables")
	}
	// Every config the schedule reaches is now a hit at the live profile.
	st0 := faults.NewState(fs)
	for t0 := int64(0); ; {
		nc, ok := st0.NextChange(t0)
		if !ok {
			break
		}
		cap, _ := st0.At(nc)
		want := HitExact
		if !cap.Degraded() {
			want = Miss
		}
		if _, kind := c.Lookup(cap.Apply(cfg), pol, prof); kind != want {
			t.Fatalf("lookup at the capability from %d returned %v, want %v", nc, kind, want)
		}
		t0 = nc
	}
	// Idempotent: a second precompute finds everything cached.
	if again := c.Precompute(cfg, comp, pol, prof, fs); again != 0 {
		t.Fatalf("second precompute added %d plans, want 0", again)
	}
}

// TestWarmLookupBeatsFreshSolve is the cache's reason to exist: a warm
// exact-key lookup must be at least 10x faster than re-running the scheduling
// pipeline, even with every kernel already in the compile memo (one walk of
// the profile vs a full allocation and sampling pass).
func TestWarmLookupBeatsFreshSolve(t *testing.T) {
	w, prof := warmWorkload(t, "moe", 12)
	comp := sched.NewCompiler(w.Graph)
	cfg := hw.Default()
	pol := sched.Adyna()
	c := New(NewKeyer(w.Graph), Config{})
	if _, _, err := c.GetOrScheduleFor("", cfg, comp, pol, prof); err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	start := time.Now()
	for i := 0; i < rounds; i++ {
		// The re-plan a miss really pays: a solve through the bring-up's
		// compile memo, which the first GetOrScheduleFor already warmed.
		if _, err := comp.Schedule(cfg, pol, prof); err != nil {
			t.Fatal(err)
		}
	}
	solve := time.Since(start)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, kind, err := c.GetOrScheduleFor("", cfg, comp, pol, prof); err != nil || kind != HitExact {
			t.Fatalf("warm lookup: kind=%v err=%v", kind, err)
		}
	}
	lookup := time.Since(start)
	if lookup <= 0 {
		lookup = 1
	}
	ratio := float64(solve) / float64(lookup)
	t.Logf("fresh solve %v vs warm lookup %v per %d re-plans: %.0fx", solve, lookup, rounds, ratio)
	if ratio < 10 {
		t.Fatalf("warm lookup only %.1fx faster than a fresh solve, want >= 10x", ratio)
	}
}

func TestHitKindString(t *testing.T) {
	cases := map[HitKind]string{Miss: "miss", HitExact: "exact", HitNearest: "nearest", HitKind(9): "miss"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("HitKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
