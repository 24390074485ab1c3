package serve

import (
	"math/rand"
	"testing"
)

// TestFIFOKeepsOrderAndArray drives the request queue with a random mix of
// pushes and pops against a plain slice: the order always matches, the
// array stops growing once it holds the deepest backlog twice over, and a
// released array is never written by later pushes.
func TestFIFOKeepsOrderAndArray(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var q fifo
	var ref []Request
	next, maxLen := 0, 0
	for i := 0; i < 20000; i++ {
		if len(ref) == 0 || r.Intn(100) < 52 {
			req := Request{ID: next}
			next++
			q.Push(req)
			ref = append(ref, req)
			maxLen = max(maxLen, len(ref))
		} else {
			if got := q.Pop(); got.ID != ref[0].ID {
				t.Fatalf("op %d: popped request %d, want %d", i, got.ID, ref[0].ID)
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) || (len(ref) > 0 && q.Front().ID != ref[0].ID) {
			t.Fatalf("op %d: queue of %d disagrees with the reference's %d", i, q.Len(), len(ref))
		}
	}
	if c := cap(q.buf); c > 4*maxLen {
		t.Fatalf("array grew to %d for a backlog of at most %d", c, maxLen)
	}

	out := q.Release()
	ids := make([]int, len(out))
	for i, req := range out {
		ids[i] = req.ID
	}
	for i := 0; i < 64; i++ {
		q.Push(Request{ID: -1})
	}
	for i, req := range out {
		if req.ID != ids[i] {
			t.Fatal("a push after Release wrote into the released array")
		}
	}
}
