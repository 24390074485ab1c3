package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCyclesPerBatch(t *testing.T) {
	r := RunResult{Cycles: 1000, Batches: 10}
	if r.CyclesPerBatch() != 100 {
		t.Fatalf("cpb = %v", r.CyclesPerBatch())
	}
	if (RunResult{}).CyclesPerBatch() != 0 {
		t.Fatal("zero batches must not divide by zero")
	}
}

func TestSpeedupOver(t *testing.T) {
	fast := RunResult{Cycles: 500, Batches: 10}
	slow := RunResult{Cycles: 1000, Batches: 10}
	if got := fast.SpeedupOver(slow); got != 2 {
		t.Fatalf("speedup = %v, want 2", got)
	}
	if got := (RunResult{Batches: 10}).SpeedupOver(slow); got != 0 {
		t.Fatalf("zero-cycle result speedup = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{4, 4, 4}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean = %v", got)
	}
	if got := Geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean = %v, want 10", got)
	}
	if Geomean(nil) != 0 || Geomean([]float64{1, 0}) != 0 || Geomean([]float64{-1}) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
}

// Property: geomean lies between min and max.
func TestQuickGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bbbb"}}
	tb.AddRow("xxxxx", "1")
	tb.AddRow("y", "22")
	s := tb.String()
	if !strings.Contains(s, "== T ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), s)
	}
	// Columns align: every body line at least as wide as the widest cell.
	if !strings.HasPrefix(lines[3], "xxxxx") {
		t.Fatalf("row misaligned: %q", lines[3])
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{
		Title:  "F",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2}, Y: []float64{5}},
		},
	}
	s := f.String()
	if !strings.Contains(s, "== F ==") || !strings.Contains(s, "10.000") {
		t.Fatalf("figure render wrong:\n%s", s)
	}
	// Series b has no point at x=1: rendered as "-".
	if !strings.Contains(s, "-") {
		t.Fatalf("missing placeholder for absent point:\n%s", s)
	}
}

func TestF(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Fatalf("F = %q", F(3.14159, 2))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(xs, 0.25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty must be 0")
	}
	// Input untouched.
	if xs[0] != 5 {
		t.Fatal("Percentile must not mutate input")
	}
}

func TestPercentileInterpolatesLinearly(t *testing.T) {
	// The implementation interpolates linearly between ranks (it is NOT
	// nearest-rank): p=0.5 over {1,2} sits exactly between the elements.
	if got := Percentile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("p50 of {1,2} = %v, want 1.5", got)
	}
	if got := Percentile([]float64{0, 10, 20, 30}, 0.95); math.Abs(got-28.5) > 1e-9 {
		t.Fatalf("p95 of {0,10,20,30} = %v, want 28.5", got)
	}
}

func TestPercentileBoundaries(t *testing.T) {
	xs := []float64{7, 3, 9}
	// Out-of-range p clamps to the extremes.
	if Percentile(xs, -0.5) != 3 || Percentile(xs, 0) != 3 {
		t.Fatal("p<=0 must yield the minimum")
	}
	if Percentile(xs, 1) != 9 || Percentile(xs, 2.5) != 9 {
		t.Fatal("p>=1 must yield the maximum")
	}
	// A single element is every quantile.
	one := []float64{42}
	for _, p := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 3} {
		if got := Percentile(one, p); got != 42 {
			t.Fatalf("single-element p=%v = %v", p, got)
		}
	}
}

// TestSummarizeMatchesPercentile checks that Summarize's single sort yields,
// bit for bit, the three Percentile calls it replaces: on random samples with
// ties, a single element and the empty slice.
func TestSummarizeMatchesPercentile(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cases := [][]float64{nil, {}, {42}, {3, 3, 3}, {1, 2}}
	for i := 0; i < 300; i++ {
		xs := make([]float64, 1+r.Intn(200))
		for j := range xs {
			if j > 0 && r.Intn(4) == 0 {
				xs[j] = xs[r.Intn(j)] // a tie
			} else {
				xs[j] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)))
			}
		}
		cases = append(cases, xs)
	}
	for _, xs := range cases {
		orig := append([]float64(nil), xs...)
		got := Summarize(xs)
		want := Summary{Count: len(xs)}
		if len(xs) > 0 {
			want.P50, want.P95, want.P99 = Percentile(xs, 0.50), Percentile(xs, 0.95), Percentile(xs, 0.99)
		}
		if got.Count != want.Count || math.Float64bits(got.P50) != math.Float64bits(want.P50) ||
			math.Float64bits(got.P95) != math.Float64bits(want.P95) ||
			math.Float64bits(got.P99) != math.Float64bits(want.P99) {
			t.Fatalf("Summarize(%v) = %+v, want percentiles %+v", xs, got, want)
		}
		for j := range xs {
			if xs[j] != orig[j] {
				t.Fatal("Summarize reordered its input")
			}
		}
	}
}

func TestChartRendering(t *testing.T) {
	f := &Figure{
		Title:  "C",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{{Name: "s", X: []float64{1, 2}, Y: []float64{1, 2}}},
	}
	s := f.Chart(20)
	if !strings.Contains(s, "== C ==") || !strings.Contains(s, "####") {
		t.Fatalf("chart render wrong:\n%s", s)
	}
	// The larger value gets the full width.
	if !strings.Contains(s, strings.Repeat("#", 20)) {
		t.Fatalf("max bar not full width:\n%s", s)
	}
	// Degenerate inputs do not panic.
	empty := &Figure{Title: "E"}
	_ = empty.Chart(0)
}
