// Package metrics defines the common result type every simulated design
// produces, plus the aggregation helpers (speedups, geometric means) and the
// plain-text table/series formatting the experiment harness prints.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RunResult is the outcome of running one design on one workload trace.
type RunResult struct {
	Design  string
	Model   string
	Batches int
	Cycles  int64

	MACs        int64
	UsefulMACs  int64
	SRAMBytes   int64
	HBMBytes    int64
	NoCByteHops int64

	PEUtil  float64
	HBMUtil float64

	ReconfigCycles int64
}

// CyclesPerBatch returns the average batch latency.
func (r RunResult) CyclesPerBatch() float64 {
	if r.Batches == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Batches)
}

// SpeedupOver returns how much faster r is than base on a per-batch basis.
func (r RunResult) SpeedupOver(base RunResult) float64 {
	cpb := r.CyclesPerBatch()
	if cpb == 0 {
		return 0
	}
	return base.CyclesPerBatch() / cpb
}

// Geomean returns the geometric mean of positive values; zero when empty or
// any value is non-positive.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the two nearest ranks (p <= 0 yields the minimum,
// p >= 1 the maximum, and a single-element slice always yields that
// element). It copies and sorts; xs is untouched.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile over samples already sorted ascending.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary condenses a latency (or any scalar) distribution into the
// percentiles a serving report quotes.
type Summary struct {
	Count                    int
	Mean, P50, P95, P99, Max float64
}

// Summarize computes the distribution summary of xs (zero value when empty).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		Count: len(xs),
		P50:   percentileSorted(sorted, 0.50),
		P95:   percentileSorted(sorted, 0.95),
		P99:   percentileSorted(sorted, 0.99),
		Max:   xs[0],
	}
	for _, x := range xs {
		s.Mean += x
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	return s
}

// Table is a simple fixed-width text table (what the experiment binary
// prints for each figure/table of the paper).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with the given decimals.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Gain renders how many times smaller x is than base ("1.23x"), or "-" when
// x is zero: the ratio column of the side-by-side comparison tables.
func Gain(x, base float64) string {
	if x == 0 {
		return "-"
	}
	return F(base/x, 2) + "x"
}

// Series is a named sequence of (x, y) points (one line of a figure).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series (one paper figure).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the figure as aligned text rows, one x per line.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	// Collect the union of x values.
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var sorted []float64
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-14s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range f.Series {
			val := math.NaN()
			for i := range s.X {
				if s.X[i] == x {
					val = s.Y[i]
				}
			}
			if math.IsNaN(val) {
				fmt.Fprintf(&b, "  %-14s", "-")
			} else {
				fmt.Fprintf(&b, "  %-14.3f", val)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(y: %s)\n", f.YLabel)
	return b.String()
}

// Chart renders the figure as an ASCII chart, one row per x value, with a
// proportional bar and the numeric value for each series. It complements
// String (the exact numbers) with a shape readable at a glance.
func (f *Figure) Chart(width int) string {
	if width < 10 {
		width = 40
	}
	var maxY float64
	for _, s := range f.Series {
		for _, y := range s.Y {
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%s:\n", s.Name)
		for i := range s.X {
			n := int(s.Y[i] / maxY * float64(width))
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "  %-10g |%-*s| %.3f\n", s.X[i], width, strings.Repeat("#", n), s.Y[i])
		}
	}
	fmt.Fprintf(&b, "(x: %s, y: %s)\n", f.XLabel, f.YLabel)
	return b.String()
}
