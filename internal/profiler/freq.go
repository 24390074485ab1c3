package profiler

import "fmt"

// FreqTable is the frequency track table of Figure 5: a histogram of the
// dyn_dim values an operator has observed. The Profiler keeps one per dynamic
// operator, increments it during execution and periodically reports it to
// the scheduler, which uses the expectation for resource allocation and the
// full distribution for multi-kernel sampling.
type FreqTable struct {
	max    int
	counts []int64
	total  int64
}

// NewFreqTable returns an empty table for dyn values in [0, max].
func NewFreqTable(max int) *FreqTable {
	if max < 0 {
		panic(fmt.Sprintf("profiler: negative freq table max %d", max))
	}
	return &FreqTable{max: max, counts: make([]int64, max+1)}
}

// Max returns the largest representable dyn value.
func (f *FreqTable) Max() int { return f.max }

// Observe records one occurrence of dyn value v. Values outside [0, max]
// saturate at the bounds (a defensive choice: the profiler hardware would
// clamp rather than corrupt memory).
func (f *FreqTable) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v > f.max {
		v = f.max
	}
	f.counts[v]++
	f.total++
}

// Count returns how many times value v has been observed.
func (f *FreqTable) Count(v int) int64 {
	if v < 0 || v > f.max {
		return 0
	}
	return f.counts[v]
}

// Total returns the number of observations.
func (f *FreqTable) Total() int64 { return f.total }

// Expectation returns the mean observed dyn value. With no observations it
// falls back to the maximum (worst case), which is exactly what a scheduler
// without profile data should assume.
func (f *FreqTable) Expectation() float64 {
	if f.total == 0 {
		return float64(f.max)
	}
	var sum float64
	for v, c := range f.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(f.total)
}

// Distribution returns the observed values (ascending) and their counts,
// skipping zero-count entries. This is the (vals, freq) pair consumed by the
// multi-kernel sampling algorithm.
func (f *FreqTable) Distribution() (vals []int, freq []int64) {
	for v, c := range f.counts {
		if c > 0 {
			vals = append(vals, v)
			freq = append(freq, c)
		}
	}
	return vals, freq
}

// EachObserved calls fn with every observed value (ascending) and its count,
// skipping zero-count entries: Distribution without building the slices.
func (f *FreqTable) EachObserved(fn func(v int, count int64)) {
	for v, c := range f.counts {
		if c > 0 {
			fn(v, c)
		}
	}
}

// Reset clears all observations (used when the profiler starts a new
// reporting window).
func (f *FreqTable) Reset() {
	for i := range f.counts {
		f.counts[i] = 0
	}
	f.total = 0
}

// Decay halves every count, aging out stale history while keeping the shape
// of the distribution. Schedulers that prefer exponentially-weighted windows
// call this at each report instead of Reset.
func (f *FreqTable) Decay() {
	f.total = 0
	for i := range f.counts {
		f.counts[i] /= 2
		f.total += f.counts[i]
	}
}
