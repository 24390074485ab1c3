package sampling

import (
	"math"
	"sort"

	"repro/internal/profiler"
)

// OptimalValues computes the *exact* loss-minimizing sample set of the given
// budget for a raw value distribution, by dynamic programming — the
// gold-standard Algorithm 1's greedy trade-one-value-per-iteration heuristic
// approximates. The largest observed value is always included (every dyn
// value must remain servable), matching the greedy algorithm's invariant.
//
// The dispatcher serves value v with the smallest sample >= v, so choosing
// samples s_1 < ... < s_k partitions the observed values into intervals
// (s_{i-1}, s_i], each costing sum phi(v) (s_i - v). The DP is O(n^2 k) over
// the n distinct observed values; it is a validation tool for tests and
// analysis, not a runtime component (the hardware runs Algorithm 1).
func OptimalValues(ft *profiler.FreqTable, budget int) []int {
	vals, freq := ft.Distribution()
	// Drop zero (an empty invocation selects no kernel), matching
	// BinByKernels.
	if len(vals) > 0 && vals[0] == 0 {
		vals, freq = vals[1:], freq[1:]
	}
	n := len(vals)
	if n == 0 {
		return nil
	}
	if budget >= n {
		return append([]int(nil), vals...)
	}
	if budget < 1 {
		budget = 1
	}

	// cost[i][j]: loss of serving observed values i..j (inclusive) with one
	// sample at vals[j]. Computed via prefix sums.
	prefixF := make([]float64, n+1)  // sum of freq
	prefixFV := make([]float64, n+1) // sum of freq*value
	for i := 0; i < n; i++ {
		prefixF[i+1] = prefixF[i] + float64(freq[i])
		prefixFV[i+1] = prefixFV[i] + float64(freq[i])*float64(vals[i])
	}
	cost := func(i, j int) float64 {
		f := prefixF[j+1] - prefixF[i]
		fv := prefixFV[j+1] - prefixFV[i]
		return float64(vals[j])*f - fv
	}

	// dp[k][j]: min loss covering values 0..j with k samples, the last at
	// vals[j].
	const inf = math.MaxFloat64
	prev := make([]float64, n)
	for j := 0; j < n; j++ {
		prev[j] = cost(0, j)
	}
	choice := make([][]int, budget)
	for k := 1; k < budget; k++ {
		cur := make([]float64, n)
		choice[k] = make([]int, n)
		for j := 0; j < n; j++ {
			cur[j] = inf
			choice[k][j] = -1
			for m := k - 1; m < j; m++ {
				if prev[m] == inf {
					continue
				}
				c := prev[m] + cost(m+1, j)
				if c < cur[j] {
					cur[j] = c
					choice[k][j] = m
				}
			}
			if j >= k && cur[j] == inf {
				// Not enough room; keep infeasible.
				continue
			}
			if j < k {
				cur[j] = inf
			}
		}
		prev = cur
	}

	// The last sample must be the maximum observed value: backtrack from
	// j = n-1 at k = budget-1.
	out := make([]int, 0, budget)
	j := n - 1
	for k := budget - 1; k >= 1; k-- {
		out = append(out, vals[j])
		j = choice[k][j]
		if j < 0 {
			break
		}
	}
	if j >= 0 {
		out = append(out, vals[j])
	}
	sort.Ints(out)
	return out
}
