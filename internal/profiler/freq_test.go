package profiler

import "testing"

func TestFreqTable(t *testing.T) {
	f := NewFreqTable(10)
	if got := f.Expectation(); got != 10 {
		t.Fatalf("empty expectation = %v, want max", got)
	}
	f.Observe(2)
	f.Observe(4)
	f.Observe(4)
	f.Observe(0)
	if f.Total() != 4 {
		t.Fatalf("total = %d", f.Total())
	}
	if got := f.Expectation(); got != 2.5 {
		t.Fatalf("expectation = %v, want 2.5", got)
	}
	vals, freq := f.Distribution()
	if len(vals) != 3 || vals[0] != 0 || vals[1] != 2 || vals[2] != 4 {
		t.Fatalf("vals = %v", vals)
	}
	if freq[2] != 2 {
		t.Fatalf("freq = %v", freq)
	}
	// Saturation at bounds.
	f.Observe(-5)
	f.Observe(99)
	if f.Count(0) != 2 || f.Count(10) != 1 {
		t.Fatal("out-of-range observations must clamp")
	}
	f.Decay()
	if f.Count(4) != 1 || f.Count(2) != 0 {
		t.Fatalf("decay wrong: count(4)=%d count(2)=%d", f.Count(4), f.Count(2))
	}
	f.Reset()
	if f.Total() != 0 {
		t.Fatal("reset left observations behind")
	}
}
