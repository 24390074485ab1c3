package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestMoERuns runs the example at its seed: the per-window table prints
// and adaptive re-scheduling beats the static schedule overall.
func TestMoERuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "static cyc/batch") || strings.Count(out, "%\n") != windows {
		t.Fatalf("no %d-window table:\n%s", windows, out)
	}
	i := strings.Index(out, "overall: adaptive re-scheduling is ")
	if i < 0 {
		t.Fatalf("no overall ratio:\n%s", out)
	}
	var ratio float64
	if _, err := fmt.Sscanf(out[i:], "overall: adaptive re-scheduling is %fx", &ratio); err != nil {
		t.Fatal(err)
	}
	if ratio <= 1 {
		t.Fatalf("adaptive re-scheduling is %.2fx the static schedule, want > 1", ratio)
	}
}
