package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// mustEntity returns the plan of the entity leading with id in seg.
func mustEntity(t *testing.T, seg *Segment, id graph.OpID) *OpPlan {
	t.Helper()
	p, ok := seg.Entity(id)
	if !ok {
		t.Fatalf("segment %d has no entity led by op %d", seg.Index, id)
	}
	return p
}

// refAllocateTiles is the scheduler's tile split as it stood before
// Apportion, keyed by operator: the reference allocateTiles must match.
func refAllocateTiles(total int, leads []graph.OpID, work map[graph.OpID]float64,
	groupLeader map[graph.OpID]graph.OpID) map[graph.OpID]int {

	var units []graph.OpID
	for _, lead := range leads {
		if gl, ok := groupLeader[lead]; ok && gl != lead {
			continue
		}
		units = append(units, lead)
	}
	alloc := map[graph.OpID]int{}
	if len(units) == 0 {
		return alloc
	}
	var sum float64
	for _, u := range units {
		w := work[u]
		if w <= 0 {
			w = 1
		}
		sum += w
	}
	type frac struct {
		id   graph.OpID
		rem  float64
		base int
	}
	fracs := make([]frac, 0, len(units))
	used := 0
	for _, u := range units {
		w := work[u]
		if w <= 0 {
			w = 1
		}
		share := float64(total) * w / sum
		base := int(share)
		if base < 1 {
			base = 1
		}
		fracs = append(fracs, frac{id: u, rem: share - float64(base), base: base})
		used += base
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for i := 0; used < total && i < len(fracs); i = (i + 1) % len(fracs) {
		fracs[i].base++
		used++
	}
	for used > total {
		big := -1
		for i := range fracs {
			if fracs[i].base > 1 && (big < 0 || fracs[i].base > fracs[big].base) {
				big = i
			}
		}
		if big < 0 {
			break
		}
		fracs[big].base--
		used--
	}
	for _, f := range fracs {
		alloc[f.id] = f.base
	}
	return alloc
}

// TestAllocateTilesMatchesReference checks the slice-based split against
// the map-based one it replaced on random segments: entity counts past the
// tile count (the floor's overflow), zero, fractional and negative work,
// exact ties, and branch groups.
func TestAllocateTilesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(40)
		total := 1 + rng.Intn(300)
		leads := make([]graph.OpID, n)
		work := make([]float64, n)
		workMap := map[graph.OpID]float64{}
		for k := range leads {
			leads[k] = graph.OpID(3*k + rng.Intn(3))
			switch rng.Intn(5) {
			case 0:
				work[k] = float64(rng.Intn(3) - 1) // -1, 0 or 1
			case 1:
				work[k] = 1000 // ties
			case 2:
				work[k] = rng.Float64()
			default:
				work[k] = rng.Float64() * 1e9
			}
			workMap[leads[k]] = work[k]
		}
		groupLeader := make([]int, n)
		glMap := map[graph.OpID]graph.OpID{}
		for k := range groupLeader {
			groupLeader[k] = -1
		}
		if n > 2 && rng.Intn(2) == 0 {
			leader := rng.Intn(n)
			for k := range groupLeader {
				if k == leader || rng.Intn(3) == 0 {
					groupLeader[k] = leader
					glMap[leads[k]] = leads[leader]
				}
			}
		}
		got := allocateTiles(total, work, groupLeader)
		want := refAllocateTiles(total, leads, workMap, glMap)
		for k, lead := range leads {
			if got[k] != want[lead] {
				t.Fatalf("trial %d (n=%d total=%d): entity %d gets %d tiles, reference %d\nwork %v\ngroups %v",
					trial, n, total, k, got[k], want[lead], work, groupLeader)
			}
		}
	}
}

// TestApportionConserves checks the split's contract: counts total exactly
// the units whenever the floors fit, never fall below the floor, and stay
// within one unit of the share.
func TestApportionConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dst []int
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(30)
		floor := rng.Intn(3)
		total := floor*n + rng.Intn(200)
		weights := make([]float64, n)
		var sum float64
		for i := range weights {
			weights[i] = rng.Float64()
			sum += weights[i]
		}
		shares := make([]float64, n)
		for i, w := range weights {
			shares[i] = float64(total) * w / sum
		}
		dst = Apportion(dst, shares, floor, total)
		got := 0
		for i, c := range dst {
			if c < floor || (c > floor && float64(c) > shares[i]+1) {
				t.Fatalf("trial %d: claimant %d gets %d for share %.3f, floor %d", trial, i, c, shares[i], floor)
			}
			got += c
		}
		if len(dst) != n || got != total {
			t.Fatalf("trial %d: %d counts totalling %d, want %d totalling %d", trial, len(dst), got, n, total)
		}
	}
}

// TestApportionTieOrderPinned pins the order sort.Slice leaves exact
// remainder ties in past 12 claimants. Shares of 2.5, 2.25, 2.5 and 2.75
// repeat, and n/2 leftover units go to the whole 2.75 class and then to
// half the 2.5 class, whose members tie. A stable sort would pick that
// half's lowest indices; pdqsort picks others, and goldens depend on its
// pick. A toolchain whose sort changes it fails here rather than as
// unexplained golden drift.
func TestApportionTieOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int // claimants getting a third unit
	}{
		{13, []int{0, 3, 4, 6, 7, 11}},
		{24, []int{2, 3, 7, 8, 10, 11, 12, 15, 19, 20, 22, 23}},
		{40, []int{2, 3, 7, 8, 11, 12, 14, 15, 16, 18, 19, 20, 23, 27, 31, 32, 35, 36, 38, 39}},
	} {
		shares := make([]float64, tc.n)
		for i := range shares {
			shares[i] = 2 + []float64{0.5, 0.25, 0.5, 0.75}[i%4]
		}
		var third []int
		for i, c := range Apportion(nil, shares, 1, 2*tc.n+tc.n/2) {
			if c == 3 {
				third = append(third, i)
			}
		}
		if !slices.Equal(third, tc.want) {
			t.Errorf("%d claimants: the third unit goes to %v, want %v", tc.n, third, tc.want)
		}
	}
}
