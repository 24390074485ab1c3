package fleet

import "testing"

// bringupSearches brings a fleet up on the given specs and returns the
// blocking searches its compiler ran, checking that every replica shares
// that one compiler and its graph.
func bringupSearches(t testing.TB, specs []ReplicaSpec) int64 {
	t.Helper()
	cfg := headlineConfig(PolicyAffinity)
	cfg.Replicas = specs
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	first := f.reps[0].srv.Setup()
	for _, r := range f.reps[1:] {
		if s := r.srv.Setup(); s.Comp != first.Comp || s.W.Graph != first.W.Graph {
			t.Fatalf("replica %s brought up on its own compiler or graph", r.name)
		}
	}
	_, searches := first.Comp.Stats()
	return searches
}

// TestFleetCompilesOnce is the counted gate on fleet bring-up: a homogeneous
// four-replica fleet runs exactly as many blocking searches as one replica,
// and a replica on another kernel-relevant config adds only that config's
// kernels.
func TestFleetCompilesOnce(t *testing.T) {
	base := headlineConfig(PolicyAffinity).Base.RC.HW
	other := base
	other.HBMDerate = 0.5
	one := bringupSearches(t, HomogeneousSpecs(1, base))
	if one == 0 {
		t.Fatal("bring-up ran no blocking search")
	}
	if four := bringupSearches(t, HomogeneousSpecs(4, base)); four != one {
		t.Fatalf("4-replica bring-up ran %d searches, 1-replica %d", four, one)
	}
	alone := bringupSearches(t, []ReplicaSpec{{Name: "r1", HW: other}})
	mixed := append(HomogeneousSpecs(2, base), ReplicaSpec{Name: "r3", HW: other})
	if got := bringupSearches(t, mixed); got != one+alone {
		t.Fatalf("mixed bring-up ran %d searches, want %d + %d", got, one, alone)
	}
}
