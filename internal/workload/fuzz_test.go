package workload

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzLoadRecording checks the recording loader's contract on arbitrary
// bytes: LoadRecording must either error or return a recording that Replay
// can convert without panicking, and replayed batches must be structurally
// sound (non-negative units, indexed in order).
func FuzzLoadRecording(f *testing.F) {
	// A genuine round-tripped recording as the primary seed.
	rec := Record("skipnet", 4, 7, []Batch{
		{Index: 0, Units: 4, Routing: routing(0, [][]int32{{0, 1}, {2, 3}})},
		{Index: 1, Units: 4, Routing: routing(0, [][]int32{{}, {0, 1, 2, 3}})},
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
		batches, err := rec.Replay()
		if err != nil {
			return
		}
		for i, b := range batches {
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

func routing(sw int, branches [][]int32) graph.BatchRouting {
	return graph.BatchRouting{graph.OpID(sw): graph.Routing{Branch: branches}}
}
