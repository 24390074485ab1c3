package profiler

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestBranchActiveFractionWindowsAcrossReset checks the statistic stays a
// sane fraction through the periodic report cycle: Reset halves both the
// per-branch counters and the batch denominator, so an established fraction
// is preserved (up to integer truncation), stays within [0,1], and new
// observations after the reset move it with double weight (the aged window).
func TestBranchActiveFractionWindowsAcrossReset(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	// Branch 0 active in 3 of 4 batches, branch 1 in 2 of 4.
	observe(t, p, g, sw, [][]int{{0}, {1}, {2, 3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{0}, {}, {1, 2, 3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{0}, {1}, {2, 3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{}, {}, {0, 1, 2, 3, 4, 5, 6, 7}}, 8)
	if got := p.BranchActiveFraction(sw, 0); got != 0.75 {
		t.Fatalf("active(0) = %v, want 0.75", got)
	}

	p.Reset()
	// 3/4 -> 1/2 (truncating halving: counters 3/2=1, batches 4/2=2); the
	// invariant that matters is it remains a valid fraction, not 1 (the
	// no-data default) and not the stale raw counter against a halved base.
	for i := 0; i < 3; i++ {
		f := p.BranchActiveFraction(sw, i)
		if f < 0 || f > 1 {
			t.Fatalf("active(%d) = %v outside [0,1] after Reset", i, f)
		}
	}
	if got := p.BranchActiveFraction(sw, 1); got != 0.5 {
		t.Fatalf("active(1) after reset = %v, want 2/2/2 = 0.5", got)
	}
	if p.Batches() != 2 {
		t.Fatalf("batches after reset = %d, want 2", p.Batches())
	}

	// The aged window keeps weighting: two fresh all-active batches dominate
	// the halved history (2 old + 2 new batches, branch 1 active in 1+2).
	observe(t, p, g, sw, [][]int{{0}, {1}, {2, 3, 4, 5, 6, 7}}, 8)
	observe(t, p, g, sw, [][]int{{0}, {1}, {2, 3, 4, 5, 6, 7}}, 8)
	if got := p.BranchActiveFraction(sw, 1); got != 0.75 {
		t.Fatalf("active(1) after refill = %v, want 3/4", got)
	}

	// Repeated Reset drains the window back to the no-data default rather
	// than getting stuck on stale history.
	for i := 0; i < 10; i++ {
		p.Reset()
	}
	if got := p.BranchActiveFraction(sw, 0); got != 1 {
		t.Fatalf("fully drained window returned %v, want the no-data default 1", got)
	}
}

// TestBranchUnitShareAcrossReset: halving preserves share ratios exactly when
// counters are even, and shares always sum to ~1 while any volume remains.
func TestBranchUnitShareAcrossReset(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)
	observe(t, p, g, sw, [][]int{{0, 1, 2, 3}, {4, 5}, {6, 7}}, 8) // shares 1/2, 1/4, 1/4
	observe(t, p, g, sw, [][]int{{0, 1, 2, 3}, {4, 5}, {6, 7}}, 8)
	want := []float64{0.5, 0.25, 0.25}
	for i, w := range want {
		if got := p.Snapshot().Share[i]; got != w {
			t.Fatalf("share(%d) = %v, want %v", i, got, w)
		}
	}
	p.Reset()
	sum := 0.0
	for i, w := range want {
		got := p.Snapshot().Share[i]
		if got != w {
			t.Fatalf("share(%d) after reset = %v, want %v (halving must preserve ratios)", i, got, w)
		}
		sum += got
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v after reset", sum)
	}
	for i := 0; i < 10; i++ {
		p.Reset()
	}
	if got := p.Snapshot().Share[0]; got != 0 {
		t.Fatalf("drained share = %v, want 0 (absent volume is the signal)", got)
	}
}

// TestCoActivationProperties is the testing/quick property test: under an
// arbitrary observation history and arbitrary query indices, CoActivation is
// symmetric, within [0,1], and no pair is more co-active than either member
// is active.
func TestCoActivationProperties(t *testing.T) {
	g, sw := twoSwitchGraph(t)
	p := New(g)

	property := func(pattern []uint8, i, j int8, reset bool) bool {
		// Drive the profiler with a derived batch: bit k of each pattern byte
		// activates branch k. Unit indices are synthesized to match.
		for _, bits := range pattern {
			var branches [][]int
			next := 0
			for k := 0; k < 3; k++ {
				if bits&(1<<k) != 0 {
					branches = append(branches, []int{next, next + 1})
					next += 2
				} else {
					branches = append(branches, nil)
				}
			}
			rt := graph.BatchRouting{sw: {Branch: branches}}
			um, err := g.AssignUnits(8, rt)
			if err != nil {
				return false
			}
			if err := p.ObserveBatch(um, rt, 1); err != nil {
				return false
			}
		}
		if reset {
			p.Reset()
		}
		a, b := int(i), int(j)
		co := p.CoActivation(sw, a, b)
		if co != p.CoActivation(sw, b, a) {
			t.Logf("asymmetric: co(%d,%d)=%v co(%d,%d)=%v", a, b, co, b, a, p.CoActivation(sw, b, a))
			return false
		}
		if co < 0 || co > 1 {
			t.Logf("co(%d,%d)=%v outside [0,1]", a, b, co)
			return false
		}
		if af := p.BranchActiveFraction(sw, a); a >= 0 && a < 3 && b >= 0 && b < 3 && a != b && co > af {
			t.Logf("co(%d,%d)=%v exceeds active(%d)=%v", a, b, co, a, af)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
