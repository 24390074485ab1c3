package plancache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestCacheConcurrentGetOrScheduleRace is the shared-plan-cache race audit:
// many goroutines — each standing in for a fleet replica with its own graph
// instance and evolving profiler — hammer one cache through GetOrScheduleFor
// concurrently. Run under -race this exercises every locked path: lookup,
// solve-on-miss, insert, eviction, and the stats counters.
func TestCacheConcurrentGetOrScheduleRace(t *testing.T) {
	proto, err := models.ByName("moe", 32)
	if err != nil {
		t.Fatal(err)
	}
	c := newBounded(proto.Graph, Config{Nearest: true, MaxDist: 0.05}, 8)
	cfg := hw.Default()
	pol := sched.Adyna()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w, err := models.ByName("moe", 32)
			if err != nil {
				errs <- err
				return
			}
			comp := sched.NewCompiler(w.Graph)
			prof := profiler.New(w.Graph)
			src := workload.NewSource(int64(id%3 + 1))
			for i := 0; i < 12; i++ {
				observe(t, w, prof, src, 2)
				plan, _, err := c.GetOrScheduleFor(fmt.Sprintf("g%d", id), cfg, comp, pol, prof)
				if err != nil {
					errs <- err
					return
				}
				if plan == nil {
					errs <- fmt.Errorf("worker %d got nil plan", id)
					return
				}
				if i%5 == 4 {
					prof.Reset()
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries == 0 || st.Entries > 8 {
		t.Fatalf("cache holds %d entries, want 1..8", st.Entries)
	}
	if st.ExactHits+st.NearestHits+st.Misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
}

// TestSharedCacheMatchesPrivateOnExactHits is the shared-cache correctness
// property: with nearest matching off, every plan a shared multi-origin
// cache returns must be byte-identical to what a per-origin private cache
// returns for the same profile state — sharing may only change who solved
// first, never the plan. Origins are driven with identical workload seeds so
// cross-origin exact-fingerprint hits actually occur (asserted via
// Stats.SharedHits).
func TestSharedCacheMatchesPrivateOnExactHits(t *testing.T) {
	proto, err := models.ByName("moe", 32)
	if err != nil {
		t.Fatal(err)
	}
	shared := New(NewKeyer(proto.Graph), Config{})
	cfg := hw.Default()
	pol := sched.Adyna()

	type origin struct {
		name    string
		w       *models.Workload
		comp    *sched.Compiler
		prof    *profiler.Profiler
		src     *workload.Source
		private *Cache
	}
	var origins []*origin
	for _, name := range []string{"a", "b"} {
		w, err := models.ByName("moe", 32)
		if err != nil {
			t.Fatal(err)
		}
		origins = append(origins, &origin{
			name: name,
			w:    w,
			comp: sched.NewCompiler(w.Graph),
			prof: profiler.New(w.Graph),
			// Same seed for both origins: their profiles evolve identically,
			// so the second origin's lookups exact-hit the first's entries.
			src:     workload.NewSource(7),
			private: New(NewKeyer(w.Graph), Config{}),
		})
	}
	for round := 0; round < 6; round++ {
		for _, o := range origins {
			observe(t, o.w, o.prof, o.src, 3)
			sp, skind, err := shared.GetOrScheduleFor(o.name, cfg, o.comp, pol, o.prof)
			if err != nil {
				t.Fatalf("round %d origin %s: shared: %v", round, o.name, err)
			}
			pp, pkind, err := o.private.GetOrScheduleFor(o.name, cfg, o.comp, pol, o.prof)
			if err != nil {
				t.Fatalf("round %d origin %s: private: %v", round, o.name, err)
			}
			if !bytes.Equal(encodePlan(t, sp), encodePlan(t, pp)) {
				t.Fatalf("round %d origin %s: shared plan (hit=%v) differs from private plan (hit=%v)",
					round, o.name, skind, pkind)
			}
			if pkind == HitExact && skind == Miss {
				t.Fatalf("round %d origin %s: private exact hit but shared miss", round, o.name)
			}
		}
	}
	st := shared.Stats()
	if st.SharedHits == 0 {
		t.Fatal("identically-driven origins produced no cross-origin shared hits")
	}
	if st.NearestHits != 0 {
		t.Fatalf("nearest hits %d recorded with nearest matching off", st.NearestHits)
	}
}
