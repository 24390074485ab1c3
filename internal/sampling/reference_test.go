package sampling

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refResample is Resample as it was before it reused its buffers: every
// step allocates its punishment and saving vectors, the trimmed set and
// the next one, and redistributes into a fresh array. It is the reference
// the buffered version must match bit for bit.
func refResample(vals []int, freq []float64, iters int) ([]int, []float64) {
	cur := append([]int(nil), vals...)
	curF := append([]float64(nil), freq...)
	if len(cur) == 1 {
		return cur, curF
	}
	for it := 0; it < iters; it++ {
		punish := refCalcPunish(cur, curF)
		rmPos := refArgmin(punish)
		rmVal := cur[rmPos]
		trimmed := refRemoveAt(cur, rmPos)
		trimmedF := refRemoveAt(curF, rmPos)
		if rmPos < len(trimmedF) {
			trimmedF[rmPos] += curF[rmPos]
		}
		saving := refCalcSaving(trimmed, trimmedF)
		inPos := refArgmax(saving)
		inVal := midpoint(trimmed, inPos)
		if inVal == rmVal || !validInsert(trimmed, inVal) {
			break
		}
		next := refInsertSorted(trimmed, inVal)
		curF = refRedistribute(cur, curF, next)
		cur = next
	}
	return cur, curF
}

func refRedistribute(vals []int, freq []float64, newVals []int) []float64 {
	newFreq := make([]float64, len(newVals))
	if len(newVals) == 0 {
		return newFreq
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
		lo := sort.SearchInts(newVals, lb+1)
		hi := sort.SearchInts(newVals, ub+1)
		if lo == hi {
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
			i := hi
			if i >= len(newVals) {
				i = len(newVals) - 1
			}
			newFreq[i] += f * float64(ub-pv) / span
		}
	}
	return newFreq
}

func refCalcPunish(vals []int, freq []float64) []float64 {
	p := make([]float64, len(vals))
	for i := range vals {
		if i == len(vals)-1 {
			p[i] = math.Inf(1)
			continue
		}
		p[i] = freq[i] * float64(vals[i+1]-vals[i])
	}
	return p
}

func refCalcSaving(vals []int, freq []float64) []float64 {
	s := make([]float64, len(vals))
	for i := range vals {
		lb := 0
		if i > 0 {
			lb = vals[i-1]
		}
		s[i] = freq[i] * float64(vals[i]-lb) / 4
	}
	return s
}

func refInsertSorted(vals []int, v int) []int {
	i := sort.SearchInts(vals, v)
	out := make([]int, 0, len(vals)+1)
	out = append(out, vals[:i]...)
	out = append(out, v)
	out = append(out, vals[i:]...)
	return out
}

func refRemoveAt[T any](s []T, i int) []T {
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

func refArgmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func refArgmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// TestResampleMatchesReference checks Resample against the allocating
// reference bit for bit, over random sample sets and frequency vectors:
// skewed, flat, sparse (many zero bins) and with ties.
func TestResampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		max := 1 + rng.Intn(4096)
		vals := Initial(max, 1+rng.Intn(40))
		freq := make([]float64, len(vals))
		for i := range freq {
			switch trial % 4 {
			case 0:
				freq[i] = rng.ExpFloat64() * 100
			case 1:
				freq[i] = 7
			case 2:
				if rng.Intn(3) == 0 {
					freq[i] = float64(rng.Intn(50))
				}
			case 3:
				freq[i] = float64(rng.Intn(4))
			}
		}
		iters := rng.Intn(64)
		got, gotF, err := Resample(vals, freq, iters)
		if err != nil {
			t.Fatal(err)
		}
		want, wantF := refResample(vals, freq, iters)
		if len(got) != len(want) || len(gotF) != len(wantF) {
			t.Fatalf("trial %d: %d values, %d frequencies; reference %d, %d",
				trial, len(got), len(gotF), len(want), len(wantF))
		}
		for i := range want {
			if got[i] != want[i] || math.Float64bits(gotF[i]) != math.Float64bits(wantF[i]) {
				t.Fatalf("trial %d: entry %d is (%d, %v), reference (%d, %v)",
					trial, i, got[i], gotF[i], want[i], wantF[i])
			}
		}
	}
}

// Resample allocates its two buffers and its result, and nothing per step.
func TestResampleAllocations(t *testing.T) {
	vals := Initial(8192, 32)
	freq := make([]float64, len(vals))
	rng := rand.New(rand.NewSource(1))
	for i := range freq {
		freq[i] = rng.ExpFloat64()
	}
	if _, _, err := Resample(vals, freq, 32); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, _, err := Resample(vals, freq, 32); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Fatalf("Resample allocates %.0f times, want at most 4", n)
	}
}
