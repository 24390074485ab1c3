package mtserve

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refApportion is the tenant split as it stood before it went through
// sched.Apportion.
func refApportion(weights []float64, eligible []bool, total, floor int) []int {
	n := len(weights)
	counts := make([]int, n)
	live := 0
	var sum float64
	for i := range weights {
		if !eligible[i] {
			continue
		}
		live++
		if weights[i] > 0 {
			sum += weights[i]
		}
	}
	if live == 0 {
		return counts
	}
	if floor*live > total {
		floor = total / live
	}
	if floor < 1 {
		floor = 1
	}
	rest := total - floor*live
	type rem struct {
		idx  int
		frac float64
	}
	var rems []rem
	given := 0
	for i := range weights {
		if !eligible[i] {
			continue
		}
		counts[i] = floor
		w := weights[i]
		if w < 0 {
			w = 0
		}
		var share float64
		if sum > 0 {
			share = w / sum * float64(rest)
		} else {
			share = float64(rest) / float64(live)
		}
		whole := int(share)
		counts[i] += whole
		given += whole
		rems = append(rems, rem{i, share - float64(whole)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < rest-given; k++ {
		counts[rems[k%len(rems)].idx]++
	}
	return counts
}

// TestApportionMatchesReference checks the tenant split against the one it
// replaced on every input the controller can pose: at least one tile per
// eligible tenant (repartition and initialCounts reject fewer first) and at
// most 12 eligible tenants, where sort.Slice breaks remainder ties in tenant
// order as the old stable sort did. Weights include zeros, negatives, exact
// ties and all-zero sums.
func TestApportionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50000; trial++ {
		n := 1 + rng.Intn(14)
		weights := make([]float64, n)
		eligible := make([]bool, n)
		live := 0
		for i := range weights {
			eligible[i] = rng.Intn(6) > 0
			if eligible[i] {
				live++
			}
			switch rng.Intn(4) {
			case 0:
				weights[i] = float64(rng.Intn(3) - 1)
			case 1:
				weights[i] = 2.5
			default:
				weights[i] = rng.Float64() * 40
			}
		}
		if live == 0 || live > 12 {
			continue
		}
		total := live + rng.Intn(300)
		floor := rng.Intn(6)
		got := apportion(weights, eligible, total, floor)
		want := refApportion(weights, eligible, total, floor)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: apportion(%v, %v, %d, %d) = %v, reference %v",
				trial, weights, eligible, total, floor, got, want)
		}
	}
}
