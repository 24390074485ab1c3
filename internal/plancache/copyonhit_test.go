package plancache

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestGetOrScheduleForClonesCrossOriginHits pins the shared cache's
// copy-on-hit rule: any hit under a fleet origin returns a private deep copy
// (byte-identical, distinct pointer), so no two replicas ever run the same
// plan object and each keeps its own full-kernel on-demand stores —
// self-hits included, since a PutFor refresh can swap another replica's live
// plan into this origin's entry. Anonymous (origin "") hits return the
// stored pointer, keeping the single-server paths bit-for-bit what they
// were.
func TestGetOrScheduleForClonesCrossOriginHits(t *testing.T) {
	w, err := models.ByName("moe", 32)
	if err != nil {
		t.Fatal(err)
	}
	c := newBounded(w.Graph, Config{}, 8)
	cfg := hw.Default()
	pol := sched.Adyna()
	comp := sched.NewCompiler(w.Graph)
	prof := profiler.New(w.Graph)
	observe(t, w, prof, workload.NewSource(1), 4)

	solved, kind, err := c.GetOrScheduleFor("rep0", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != Miss {
		t.Fatalf("first call: kind=%v, want Miss", kind)
	}

	self, kind, err := c.GetOrScheduleFor("rep0", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != HitExact {
		t.Fatalf("self hit: kind=%v, want HitExact", kind)
	}
	if self == solved {
		t.Fatal("self-origin fleet hit returned the stored plan pointer")
	}

	other, kind, err := c.GetOrScheduleFor("rep1", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != HitExact {
		t.Fatalf("cross-origin hit: kind=%v, want HitExact", kind)
	}
	if other == solved {
		t.Fatal("cross-origin hit returned the shared plan pointer")
	}
	var a, b bytes.Buffer
	if err := solved.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := other.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cross-origin clone encodes differently from the stored plan")
	}
	if st := c.Stats(); st.SharedHits != 1 {
		t.Fatalf("SharedHits=%d, want 1", st.SharedHits)
	}

	// Anonymous origin keeps the pointer-return fast path.
	anon := newBounded(w.Graph, Config{}, 8)
	first, _, err := anon.GetOrScheduleFor("", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	again, kind, err := anon.GetOrScheduleFor("", cfg, comp, pol, prof)
	if err != nil {
		t.Fatal(err)
	}
	if kind != HitExact || again != first {
		t.Fatalf("anonymous hit: kind=%v, same pointer=%v; want exact hit on the stored pointer", kind, again == first)
	}
}
