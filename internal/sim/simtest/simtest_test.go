package simtest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestEqualReportsFirstDivergence pins the differ's own contract: identical
// artifacts compare clean, a one-sided artifact is a presence divergence,
// and mismatched bytes report the first diverging offset with context.
func TestEqualReportsFirstDivergence(t *testing.T) {
	a := Artifacts{Outcomes: []byte("abcdef"), Snapshot: []byte("{}")}
	if err := Equal(a, a); err != nil {
		t.Fatalf("identical artifacts diverged: %v", err)
	}
	b := a
	b.Trace = []byte("[]")
	err := Equal(a, b)
	if err == nil || !strings.Contains(err.Error(), "present on one side only") {
		t.Fatalf("one-sided trace not flagged: %v", err)
	}
	c := a
	c.Outcomes = []byte("abcXef")
	err = Equal(a, c)
	if err == nil || !strings.Contains(err.Error(), "diverges at byte 3") {
		t.Fatalf("wrong divergence report: %v", err)
	}
}

// TestRenderAndTraceBytesCanonical checks the render paths: Render produces
// deterministic JSON for comparable values, a nil trace yields nil bytes
// (compared as absent), and a real trace round-trips through validation.
func TestRenderAndTraceBytesCanonical(t *testing.T) {
	v := struct {
		N int
		S string
	}{7, "x"}
	if string(Render(t, v)) != string(Render(t, v)) {
		t.Fatal("Render is not deterministic")
	}
	if TraceBytes(t, nil) != nil {
		t.Fatal("nil trace must render as absent")
	}
	tr := telemetry.NewTrace()
	rec := tr.Recorder("simtest")
	tk := rec.Track("t")
	rec.Instant(tk, "test", "e", 1)
	got := TraceBytes(t, tr)
	if len(got) == 0 {
		t.Fatal("traced run rendered empty")
	}
	Diff(t, "trace self-compare", Artifacts{Trace: got}, Artifacts{Trace: got})
}

// TestGoldenReadsRecordedFiles: artifacts equal to the recorded files pass —
// outcomes verbatim, the trace through its SHA-256 hex line — and an absent
// artifact (here the snapshot) needs no file.
func TestGoldenReadsRecordedFiles(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"run.outcomes.json": "[1]",
		"run.trace.sha256":  "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a\n",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	Golden(t, dir, "run", Artifacts{Outcomes: []byte("[1]"), Trace: []byte("{}")})
}
