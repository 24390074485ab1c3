package workload

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewSource(43)
	same := true
	a = NewSource(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestClampers(t *testing.T) {
	if ClampInt(5, 1, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Fatal("ClampInt wrong")
	}
	if Clamp01(1.5) != 1 || Clamp01(-0.5) != 0 || Clamp01(0.3) != 0.3 {
		t.Fatal("Clamp01 wrong")
	}
}

func TestNormIntStaysInRange(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 1000; i++ {
		v := s.NormInt(10, 20, 0, 15)
		if v < 0 || v > 15 {
			t.Fatalf("NormInt out of range: %d", v)
		}
	}
}

func TestJitterProbBounds(t *testing.T) {
	s := NewSource(2)
	for i := 0; i < 1000; i++ {
		p := s.JitterProb(0.5, 0.5)
		if p < 0 || p > 1 {
			t.Fatalf("JitterProb out of range: %v", p)
		}
	}
}

func TestDriftBoundedAndMoving(t *testing.T) {
	s := NewSource(3)
	d := NewDrift(0.5, 0.2, 0.8, 0.05)
	min, max := 1.0, 0.0
	for i := 0; i < 2000; i++ {
		v := d.Step(s)
		if v < 0.2 || v > 0.8 {
			t.Fatalf("drift escaped bounds: %v", v)
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min < 0.1 {
		t.Fatalf("drift barely moved: [%v, %v]", min, max)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(8, 1.6)
	var sum float64
	for i, x := range w {
		sum += x
		if i > 0 && x >= w[i-1] {
			t.Fatal("Zipf weights must decrease")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if w[0] < 4*w[7] {
		t.Fatalf("alpha=1.6 should be strongly skewed: %v", w)
	}
}

func TestSampleCategoricalRespectsWeights(t *testing.T) {
	s := NewSource(4)
	w := []float64{0.9, 0.05, 0.05}
	counts := make([]int, 3)
	for i := 0; i < 5000; i++ {
		counts[s.SampleCategorical(w)]++
	}
	if counts[0] < 4000 {
		t.Fatalf("heavy category undersampled: %v", counts)
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("light categories never sampled: %v", counts)
	}
}

func TestSampleTopKDistinctSorted(t *testing.T) {
	s := NewSource(5)
	w := ZipfWeights(8, 1.2)
	for i := 0; i < 200; i++ {
		ks := s.AppendTopK(nil, w, 3)
		if len(ks) != 3 {
			t.Fatalf("topk len = %d", len(ks))
		}
		for j := 1; j < len(ks); j++ {
			if ks[j] <= ks[j-1] {
				t.Fatalf("topk not sorted distinct: %v", ks)
			}
		}
	}
	// k larger than n collapses to n.
	if got := s.AppendTopK(nil, w, 20); len(got) != 8 {
		t.Fatalf("oversized k should clamp: %v", got)
	}
}

func TestSampleTopKDegenerateWeights(t *testing.T) {
	s := NewSource(6)
	// Fewer positive weights than k: the draw must stop at the exhausted
	// mass instead of padding with duplicates of the last index.
	for i := 0; i < 100; i++ {
		got := s.AppendTopK(nil, []float64{0, 0, 1, 0, 0.5, 0}, 4)
		if len(got) != 2 || got[0] != 2 || got[1] != 4 {
			t.Fatalf("want the two positive indices [2 4], got %v", got)
		}
	}
	// All-zero mass yields no indices at all.
	if got := s.AppendTopK(nil, []float64{0, 0, 0}, 2); len(got) != 0 {
		t.Fatalf("all-zero weights must yield nothing, got %v", got)
	}
	// A single positive weight among zeros is returned exactly once.
	if got := s.AppendTopK(nil, []float64{0, 0, 0, 7}, 3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("want [3], got %v", got)
	}
}

// Property: AppendTopK never returns duplicates and all indices are valid.
func TestQuickTopKValidity(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		s := NewSource(seed)
		w := ZipfWeights(10, 1.0)
		k := int(kRaw)%10 + 1
		ks := s.AppendTopK(nil, w, k)
		seen := map[int]bool{}
		for _, i := range ks {
			if i < 0 || i >= 10 || seen[i] {
				return false
			}
			seen[i] = true
		}
		return len(ks) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	// Build a hand-rolled trace, record it, replay it, and compare.
	batches := []Batch{
		{Index: 0, Units: 4, Routing: map[graph.OpID]graph.Routing{
			3: {Branch: [][]int{{0, 1}, {2, 3}}},
		}},
		{Index: 1, Units: 4, Routing: map[graph.OpID]graph.Routing{
			3: {Branch: [][]int{{}, {0, 1, 2, 3}}},
		}},
	}
	rec := Record("demo", 4, 7, batches)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Model != "demo" || loaded.BatchSamples != 4 || loaded.Seed != 7 {
		t.Fatalf("header lost: %+v", loaded)
	}
	replayed, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d batches", len(replayed))
	}
	got := replayed[0].Routing[3].Branch
	if len(got) != 2 || len(got[0]) != 2 || got[0][1] != 1 {
		t.Fatalf("routing lost: %v", got)
	}
	if replayed[1].Index != 1 {
		t.Fatal("indices must be regenerated in order")
	}
}

func TestLoadRecordingRejectsGarbage(t *testing.T) {
	if _, err := LoadRecording(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	rec := &Recording{Batches: []RecordedBatch{{Units: -1}}}
	if _, err := rec.Replay(); err == nil {
		t.Fatal("negative units accepted")
	}
	rec2 := &Recording{Batches: []RecordedBatch{{Units: 1, Routing: map[string][][]int{"xx": nil}}}}
	if _, err := rec2.Replay(); err == nil {
		t.Fatal("bad switch key accepted")
	}
}

// AppendTopK reuses one working copy of the weights per Source; the draws
// must stay those of a fresh copy per call. The first 64 draws for seed 7
// over a Zipf vector with one zero weight are pinned, and neither the
// caller's weights nor an earlier result may change under later draws.
// Appending to a reused buffer yields the same draws and keeps its prefix.
func TestSampleTopKStreamPinned(t *testing.T) {
	want := [][]int{
		{0, 11}, {0, 7, 12}, {0, 1, 2, 4}, {1, 4}, {0, 1, 12}, {0, 1, 9, 12}, {0, 9}, {0, 9, 12},
		{0, 2, 4, 8}, {4, 10}, {0, 1, 13}, {1, 6, 9, 12}, {0, 14}, {0, 1, 10}, {0, 2, 5, 9}, {0, 2},
		{0, 4, 14}, {0, 1, 5, 6}, {1, 10}, {2, 4, 10}, {0, 1, 9, 13}, {0, 10}, {0, 1, 2}, {0, 1, 2, 9},
		{0, 2}, {0, 6, 12}, {0, 1, 9, 13}, {0, 2}, {0, 1, 14}, {2, 11, 12, 14}, {7, 13}, {0, 1, 10},
		{0, 2, 11, 13}, {0, 15}, {1, 5, 13}, {0, 1, 2, 9}, {0, 7}, {0, 1, 6}, {0, 1, 12, 14}, {0, 2},
		{0, 2, 11}, {0, 9, 13, 14}, {13, 15}, {0, 4, 7}, {0, 2, 5, 15}, {0, 5}, {0, 1, 7}, {0, 2, 6, 15},
		{0, 10}, {8, 10, 11}, {0, 2, 4, 6}, {0, 2}, {0, 8, 15}, {0, 1, 2, 8}, {10, 15}, {0, 1, 2},
		{0, 1, 5, 6}, {5, 12}, {0, 2, 4}, {0, 1, 2, 5}, {4, 6}, {1, 4, 7}, {1, 5, 6, 9}, {2, 7},
	}
	src := NewSource(7)
	w := ZipfWeights(16, 1.1)
	w[3] = 0
	orig := append([]float64(nil), w...)
	got := make([][]int, len(want))
	for i := range want {
		got[i] = src.AppendTopK(nil, w, 2+i%3)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("draw %d = %v, want %v", i, got[i], want[i])
		}
	}
	if !slices.Equal(w, orig) {
		t.Fatal("AppendTopK modified the caller's weights")
	}

	src = NewSource(7)
	buf := []int{99}
	for i := range want {
		buf = src.AppendTopK(buf[:1], w, 2+i%3)
		if buf[0] != 99 || !slices.Equal(buf[1:], want[i]) {
			t.Fatalf("appended draw %d = %v, want [99] + %v", i, buf, want[i])
		}
	}
}
