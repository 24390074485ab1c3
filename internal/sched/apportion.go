package sched

import (
	"slices"
	"sort"
)

// Apportion splits total units over len(shares) claimants by largest
// remainder and writes the counts to dst (grown as needed), which it
// returns. Each count starts at max(floor, int(share)). Leftover units go
// one each to the claimants in descending order of remainder
// share-count, cycling through that order while units are left. Overflow
// (a floor can hand out more than total) is trimmed one unit at a time
// from the largest count still above floor, the first in that same order
// among equals. The scheduler splits a segment's tiles over its entities
// with it and mtserve splits the chip over its tenants.
//
// The remainder order comes from sort.Slice, whose pdqsort leaves exact
// ties in input order only up to 12 claimants. Goldens depend on the order
// it leaves larger ties in (sort.SliceStable moves serve's skipnet-burst
// golden, one fleet golden and the telemetry golden trace), so
// TestApportionTieOrderPinned pins it: a toolchain that changes it fails
// there first.
func Apportion(dst []int, shares []float64, floor, total int) []int {
	n := len(shares)
	dst = slices.Grow(dst[:0], n)[:n]
	order := make([]int, n)
	used := 0
	for i, s := range shares {
		dst[i] = max(floor, int(s))
		used += dst[i]
		order[i] = i
	}
	if n == 0 {
		return dst
	}
	rem := func(i int) float64 { return shares[i] - float64(dst[i]) }
	sort.Slice(order, func(a, b int) bool { return rem(order[a]) > rem(order[b]) })
	for k := 0; used < total; k = (k + 1) % n {
		dst[order[k]]++
		used++
	}
	for used > total {
		big := -1
		for _, i := range order {
			if dst[i] > floor && (big < 0 || dst[i] > dst[big]) {
				big = i
			}
		}
		if big < 0 {
			break
		}
		dst[big]--
		used--
	}
	return dst
}
