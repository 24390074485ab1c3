package experiments

import (
	"strconv"
	"testing"
)

// TestPipelineMakespanGain smoke-tests the batch-pipelining experiment at
// tiny scale: the burst must finish in strictly fewer virtual cycles at
// depth 4 than at depth 1.
func TestPipelineMakespanGain(t *testing.T) {
	opt := tiny()
	opt.RC.Batches = 4 // 48 requests
	tb, err := Pipeline(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", len(tb.Rows), tb)
	}
	// Rows[0] is the makespan: [metric, depth-1 cycles, depth-4 cycles,
	// gain]; the overlap must shorten it.
	flat, err1 := strconv.ParseInt(tb.Rows[0][1], 10, 64)
	piped, err2 := strconv.ParseInt(tb.Rows[0][2], 10, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable makespans: %v", tb.Rows[0])
	}
	if piped >= flat {
		t.Fatalf("pipelining did not shorten the makespan: %d cycles at depth 4, %d at depth 1", piped, flat)
	}
}
