// Package sampling implements Adyna's multi-kernel sampling (Section VII):
// choosing which subset of dyn_dim values to compile kernels for, given the
// value-frequency distribution reported by the hardware profiler.
//
// The kernel dispatcher always selects the smallest stored value no less than
// the actual dyn value, so serving value v with sample v_i costs a loss of
// (v_i - v). Algorithm 1 iteratively removes the sample whose removal hurts
// least and inserts a new sample where it saves most; Algorithm 2
// redistributes the observed per-kernel frequencies onto the new sample set
// under a per-interval uniform assumption.
package sampling

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/profiler"
)

// Initial returns the starting kernel values: budget values uniformly
// spanning [1, max], always including max (the worst case must always be
// servable). This is the paper's initial set before any profile exists.
func Initial(max, budget int) []int {
	if max < 1 {
		return nil
	}
	if budget < 1 {
		budget = 1
	}
	if budget > max {
		budget = max
	}
	// i*max/budget is non-decreasing in i, so a repeat can only equal the
	// value appended last: the result comes out ascending and distinct.
	vals := make([]int, 0, budget)
	for i := 1; i <= budget; i++ {
		v := i * max / budget
		if v < 1 {
			v = 1
		}
		if n := len(vals); n == 0 || vals[n-1] != v {
			vals = append(vals, v)
		}
	}
	return vals
}

// BinByKernels aggregates a raw dyn-value frequency table into per-kernel
// invocation counts: bin i counts the observations in (vals[i-1], vals[i]].
// Observations of zero are dropped (an empty invocation selects no kernel),
// and observations above the largest value saturate into the last bin.
// This mirrors what the hardware profiler reports to the scheduler.
func BinByKernels(ft *profiler.FreqTable, vals []int) []float64 {
	bins := make([]float64, len(vals))
	if len(vals) == 0 {
		return bins
	}
	for v := 1; v <= ft.Max(); v++ {
		c := ft.Count(v)
		if c == 0 {
			continue
		}
		i := sort.SearchInts(vals, v)
		if i == len(vals) {
			i = len(vals) - 1
		}
		bins[i] += float64(c)
	}
	return bins
}

// Loss evaluates the expected per-batch matching loss of a sample set against
// a raw value distribution: sum over observed values v of count(v) times
// (match(v) - v), where match(v) is the smallest sample >= v. Values above
// the largest sample cost the distance to it (they would need multi-pass
// execution). Used to validate that re-sampling improves matching.
func Loss(vals []int, ft *profiler.FreqTable) float64 {
	if len(vals) == 0 {
		return math.Inf(1)
	}
	var loss float64
	for v := 1; v <= ft.Max(); v++ {
		c := ft.Count(v)
		if c == 0 {
			continue
		}
		i := sort.SearchInts(vals, v)
		if i == len(vals) {
			i = len(vals) - 1
		}
		gap := vals[i] - v
		if gap < 0 {
			gap = v - vals[i]
		}
		loss += float64(c) * float64(gap)
	}
	return loss
}

// Redistribute implements Algorithm 2: given the old sample values and their
// per-kernel frequencies, it spreads each old bin's mass across the new
// sample values that fall inside that bin's interval, assuming the
// distribution within each interval is uniform. Mass beyond the last new
// sample inside an interval flows to the next larger sample so that total
// frequency is conserved.
func Redistribute(vals []int, freq []float64, newVals []int) []float64 {
	newFreq := make([]float64, len(newVals))
	redistribute(newFreq, vals, freq, newVals)
	return newFreq
}

// redistribute is Redistribute into newFreq, which must have newVals'
// length and share no memory with freq.
func redistribute(newFreq []float64, vals []int, freq []float64, newVals []int) {
	clear(newFreq)
	if len(newVals) == 0 {
		return
	}
	for pos := range freq {
		f := freq[pos]
		if f == 0 {
			continue
		}
		ub := vals[pos]
		if ub < newVals[0] {
			newFreq[0] += f
			continue
		}
		lb := 0
		if pos > 0 {
			lb = vals[pos-1]
		}
		// New samples inside (lb, ub].
		lo := sort.SearchInts(newVals, lb+1)
		hi := sort.SearchInts(newVals, ub+1)
		if lo == hi {
			// No new sample covers this interval: the whole bin matches the
			// next larger sample (or the last one if none).
			i := hi
			if i >= len(newVals) {
				i = len(newVals) - 1
			}
			newFreq[i] += f
			continue
		}
		pv := lb
		span := float64(ub - lb)
		for i := lo; i < hi; i++ {
			v := newVals[i]
			newFreq[i] += f * float64(v-pv) / span
			pv = v
		}
		if pv < ub {
			// Residual mass above the last in-interval sample.
			i := hi
			if i >= len(newVals) {
				i = len(newVals) - 1
			}
			newFreq[i] += f * float64(ub-pv) / span
		}
	}
}

// Resample implements Algorithm 1: starting from the current sample values
// and their per-kernel frequencies, it runs up to iters improvement steps,
// each removing the value with the least punishment and inserting a midpoint
// with the greatest saving, then redistributing frequencies (Algorithm 2).
// The largest value is never removed (every dyn value must stay servable) and
// the sample count is preserved. The steps allocate nothing: the result's
// arrays and one scratch array each for values and frequencies hold the
// current set, the next one and the set in between (minus the removed
// value), and each step swaps the current and next sets.
func Resample(vals []int, freq []float64, iters int) ([]int, []float64, error) {
	if len(vals) != len(freq) {
		return nil, nil, fmt.Errorf("sampling: %d values but %d frequencies", len(vals), len(freq))
	}
	if len(vals) == 0 {
		return nil, nil, fmt.Errorf("sampling: empty sample set")
	}
	if !sort.IntsAreSorted(vals) {
		return nil, nil, fmt.Errorf("sampling: values not sorted")
	}
	n := len(vals)
	outV, outF := slices.Clone(vals), slices.Clone(freq)
	if n == 1 {
		return outV, outF, nil // nothing to trade
	}
	// Callers keep the result, so the scratch lives in separate arrays.
	vb, fb := make([]int, 2*n-1), make([]float64, 2*n-1)
	cur, next, trimmed := outV, vb[:n], vb[n:]
	curF, nextF, trimmedF := outF, fb[:n], fb[n:]
	for it := 0; it < iters; it++ {
		// Remove the value with the least punishment.
		rmPos := leastPunished(cur, curF)
		rmVal := cur[rmPos]
		copy(trimmed, cur[:rmPos])
		copy(trimmed[rmPos:], cur[rmPos+1:])
		copy(trimmedF, curF[:rmPos])
		copy(trimmedF[rmPos:], curF[rmPos+1:])
		// The removed bin's mass now matches the next larger sample.
		if rmPos < len(trimmedF) {
			trimmedF[rmPos] += curF[rmPos]
		}
		// Add the value with the most saving.
		inPos := mostSaving(trimmed, trimmedF)
		inVal := midpoint(trimmed, inPos)
		if inVal == rmVal || !validInsert(trimmed, inVal) {
			// No profitable move remains: recover the removed value and stop.
			break
		}
		i := sort.SearchInts(trimmed, inVal)
		copy(next, trimmed[:i])
		next[i] = inVal
		copy(next[i+1:], trimmed[i:])
		redistribute(nextF, cur, curF, next)
		cur, next = next, cur
		curF, nextF = nextF, curF
	}
	copy(outV, cur) // a no-op when the last set is already there
	copy(outF, curF)
	return outV, outF, nil
}

// leastPunished returns the sample whose removal increases the loss least
// (Equation 1): the bin's mass times the extra gap to the next sample. The
// last sample is irremovable (infinite punishment). Ties go to the lowest
// index.
func leastPunished(vals []int, freq []float64) int {
	best, bestP := 0, math.Inf(1)
	for i := range vals {
		p := math.Inf(1)
		if i < len(vals)-1 {
			p = freq[i] * float64(vals[i+1]-vals[i])
		}
		if i == 0 || p < bestP {
			best, bestP = i, p
		}
	}
	return best
}

// mostSaving returns the sample below which inserting a midpoint decreases
// the loss most: half the bin's mass times half the interval width (uniform
// assumption). Ties go to the lowest index.
func mostSaving(vals []int, freq []float64) int {
	best, bestS := 0, 0.0
	lb := 0
	for i, v := range vals {
		s := freq[i] * float64(v-lb) / 4
		if i == 0 || s > bestS {
			best, bestS = i, s
		}
		lb = v
	}
	return best
}

// midpoint returns the midpoint of the interval below vals[i].
func midpoint(vals []int, i int) int {
	lb := 0
	if i > 0 {
		lb = vals[i-1]
	}
	return (lb + vals[i]) / 2
}

// validInsert reports whether v is a usable new sample: positive and not
// already present.
func validInsert(vals []int, v int) bool {
	if v < 1 {
		return false
	}
	i := sort.SearchInts(vals, v)
	return i == len(vals) || vals[i] != v
}

// ResampleFromTable is the full profiler-to-scheduler path: bin the raw
// frequency table by the current kernel values, then run Algorithm 1.
func ResampleFromTable(vals []int, ft *profiler.FreqTable, iters int) ([]int, error) {
	bins := BinByKernels(ft, vals)
	newVals, _, err := Resample(vals, bins, iters)
	return newVals, err
}
