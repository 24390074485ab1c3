package workload

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestParseDensityTrace(t *testing.T) {
	cases := []struct {
		in   string
		want []float64
	}{
		{"0.5", []float64{0.5}},
		{"1", []float64{1}},
		{"0.9,0.2", []float64{0.9, 0.2}},
		{"0.9 0.2\t0.7\n1", []float64{0.9, 0.2, 0.7, 1}},
		{"0.25x3", []float64{0.25, 0.25, 0.25}},
		{"0.9x2,0.1x2", []float64{0.9, 0.9, 0.1, 0.1}},
		{" ,0.5,, 0.75 ,", []float64{0.5, 0.75}},
	}
	for _, c := range cases {
		got, err := ParseDensityTrace(c.in)
		if err != nil {
			t.Errorf("ParseDensityTrace(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseDensityTrace(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("ParseDensityTrace(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}

	bad := []string{
		"",            // empty trace
		" , \t",       // separators only
		"0",           // density must be positive
		"-0.5",        // negative
		"1.5",         // above one
		"0.5x0",       // repeat must be ≥1
		"0.5x-2",      // negative repeat
		"0.5xx3",      // malformed repeat
		"0.5x",        // missing repeat count
		"x3",          // missing value
		"abc",         // not a number
		"0.5x2000000", // repeat above maxDensityRepeat
	}
	for _, in := range bad {
		if got, err := ParseDensityTrace(in); err == nil {
			t.Errorf("ParseDensityTrace(%q) = %v, want error", in, got)
		}
	}
}

// stubGen is a do-nothing routing generator for wrapping in density tests.
type stubGen struct{}

func (stubGen) Next(*Source, int) graph.BatchRouting { return nil }

func TestFixedDensitiesCycles(t *testing.T) {
	fd, err := NewFixedDensities(stubGen{}, []float64{0.9, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(1)
	want := []float64{0.9, 0.2, 0.9, 0.2, 0.9}
	for i, w := range want {
		if got := fd.NextDensity(src); got != w {
			t.Fatalf("draw %d = %v, want %v (trace cycles)", i, got, w)
		}
	}
	if _, err := NewFixedDensities(stubGen{}, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := NewFixedDensities(stubGen{}, []float64{0.5, 0}); err == nil {
		t.Fatal("zero density accepted")
	}
}

func TestDensityWalkStaysBounded(t *testing.T) {
	dw := NewDensityWalk(stubGen{}, 0.5, 0.2, 0.8, 0.15)
	src := NewSource(3)
	for i := 0; i < 2000; i++ {
		d := dw.NextDensity(src)
		if d < 0.2 || d > 0.8 {
			t.Fatalf("draw %d = %v left [0.2, 0.8]", i, d)
		}
	}
	// Degenerate bounds are clamped into (0,1].
	dw = NewDensityWalk(stubGen{}, 0.5, -1, 4, 0.3)
	for i := 0; i < 2000; i++ {
		d := dw.NextDensity(src)
		if d <= 0 || d > 1 {
			t.Fatalf("clamped walk draw %d = %v left (0,1]", i, d)
		}
	}
}

// FuzzDensityTrace checks the density-trace parser's contract on arbitrary
// strings: it either errors or returns a non-empty trace whose every value is
// in (0,1] and is accepted verbatim by NewFixedDensities.
func FuzzDensityTrace(f *testing.F) {
	f.Add("0.5")
	f.Add("0.9,0.2")
	f.Add("0.25x16 1")
	f.Add("0.9x200,0.2x400")
	f.Add("1x1048576")
	f.Add("0.5x0")
	f.Add("x3")
	f.Add("")
	f.Add("0.1e-1")
	f.Add("NaN")
	f.Add("Inf")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1<<12 {
			t.Skip("oversized input")
		}
		ds, err := ParseDensityTrace(s)
		if err != nil {
			return
		}
		if len(ds) == 0 {
			t.Fatalf("ParseDensityTrace(%q) returned empty trace without error", s)
		}
		for i, d := range ds {
			if !(d > 0 && d <= 1) || math.IsNaN(d) {
				t.Fatalf("ParseDensityTrace(%q)[%d] = %v outside (0,1]", s, i, d)
			}
		}
		if _, err := NewFixedDensities(stubGen{}, ds); err != nil {
			t.Fatalf("parsed trace rejected by NewFixedDensities: %v", err)
		}
	})
}
