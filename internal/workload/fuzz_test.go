package workload

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzLoadRecording checks the recording loader's contract on arbitrary
// bytes: LoadRecording must either error or return a recording that Replay
// can convert without panicking, and replayed batches must be structurally
// sound (non-negative units, indexed in order, one routing per switch).
func FuzzLoadRecording(f *testing.F) {
	g := skipGraph(f)
	// A genuine round-tripped recording as the primary seed.
	rec := Record(g, "demo", 4, 7, []Batch{
		{Index: 0, Units: 4, Routing: routing([][]int32{{0, 1}, {2, 3}})},
		{Index: 1, Units: 4, Routing: routing([][]int32{{}, {0, 1, 2, 3}})},
	})
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"model":"m","batch_samples":1,"seed":0,"batches":[]}`))
	f.Add([]byte(`{"batches":[{"units":-3,"routing":{"0":[[0]]}}]}`))
	f.Add([]byte(`{"batches":[{"units":1,"routing":{"not-a-number":[[0]]}}]}`))
	f.Add([]byte(`{"batches":[{"units":1,"routing":{"-1":[[0],[1],[2]]}}]}`))
	f.Add([]byte(`{"batches":[{"units":1,"routing":{"02":[[0],[]]}}]}`))
	f.Add([]byte(`{"batches":[{"units":1,"routing":{"1":[[0],[]]}}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input")
		}
		rec, err := LoadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rec == nil {
			t.Fatal("LoadRecording returned nil recording and nil error")
		}
		batches, err := rec.Replay(g)
		if err != nil {
			return
		}
		for i, b := range batches {
			if len(b.Routing) != len(g.Switches()) {
				t.Fatalf("replayed batch %d routes %d switches", i, len(b.Routing))
			}
			if b.Units < 0 {
				t.Fatalf("replayed batch %d has negative units", i)
			}
			if b.Index != i {
				t.Fatalf("replayed batch %d carries index %d", i, b.Index)
			}
			for _, r := range b.Routing {
				for _, br := range r.Branch {
					for _, u := range br {
						if u < 0 {
							t.Fatalf("replayed batch %d routes negative unit %d", i, u)
						}
					}
				}
			}
		}
	})
}

// routing is skipGraph's one-switch routing.
func routing(branches [][]int32) graph.BatchRouting {
	return graph.BatchRouting{{Branch: branches}}
}

// skipGraph is a four-unit graph with one two-branch switch (operator 2).
func skipGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder("demo", 1)
	in := b.Input("in", 32, 4)
	gate := b.Gate("gate", in, 16, 2)
	br := b.Switch("sw", in, gate, 2)
	b0 := b.MatMul("b0", br[0], 16, 16)
	b1 := b.MatMul("b1", br[1], 16, 16)
	b.Output("out", b.Merge("m", br, b0, b1))
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
