// Package simtest is the equivalence test harness for the parallel engine:
// it renders a scenario's observable artifacts — outcome logs, counter
// snapshots, telemetry traces — to canonical bytes and asserts that two
// runs (sequential vs parallel, or any other pair that must be
// indistinguishable) are byte-identical, reporting the first divergence
// with context when they are not. Golden holds a run to artifacts recorded
// from an earlier reference run the same way.
//
// The package sits below the serving layers on purpose: serve, mtserve and
// fleet tests import it, never the reverse, so any scenario at any layer
// can be pinned with the same differ.
package simtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// Artifacts is one run's observable output: everything the repo's
// determinism guarantee covers. A nil/empty field is simply not compared
// against its counterpart's content — but presence must match (one side
// tracing while the other does not is itself a divergence).
type Artifacts struct {
	// Outcomes is the rendered per-request outcome log.
	Outcomes []byte
	// Snapshot is the rendered counters/gauges snapshot.
	Snapshot []byte
	// Trace is the serialized telemetry trace JSON (already validated when
	// built via TraceBytes).
	Trace []byte
	// Report is the human-readable report a CLI prints for the run.
	Report []byte
}

// Render canonicalizes any value to deterministic bytes via encoding/json
// (map keys sorted, struct fields in declaration order). Reports, outcome
// slices, and snapshots all render through here so byte comparison means
// structural equality.
func Render(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatalf("simtest: rendering %T: %v", v, err)
	}
	return b
}

// TraceBytes serializes a telemetry trace to its canonical JSON and
// validates it (well-formed events, sorted recorders, monotonic spans per
// telemetry.Validate). A nil trace yields nil bytes.
func TraceBytes(t testing.TB, tr *telemetry.Trace) []byte {
	t.Helper()
	if tr == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("simtest: serializing trace: %v", err)
	}
	if _, err := telemetry.Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("simtest: trace invalid: %v", err)
	}
	return buf.Bytes()
}

// Diff asserts two artifact sets are byte-identical, failing the test with
// first-divergence context otherwise. label names the comparison in the
// failure message ("workers=4 vs sequential").
func Diff(t testing.TB, label string, a, b Artifacts) {
	t.Helper()
	if err := Equal(a, b); err != nil {
		t.Fatalf("simtest: %s: %v", label, err)
	}
}

// Equal compares two artifact sets and returns a description of the first
// divergence (nil when byte-identical).
func Equal(a, b Artifacts) error {
	if err := diffBytes("outcomes", a.Outcomes, b.Outcomes); err != nil {
		return err
	}
	if err := diffBytes("snapshot", a.Snapshot, b.Snapshot); err != nil {
		return err
	}
	if err := diffBytes("report", a.Report, b.Report); err != nil {
		return err
	}
	return diffBytes("trace", a.Trace, b.Trace)
}

// diffBytes compares one artifact and renders the first divergence with a
// context window on each side.
func diffBytes(kind string, a, b []byte) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: present on one side only (a=%d bytes, b=%d bytes)", kind, len(a), len(b))
	}
	if bytes.Equal(a, b) {
		return nil
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Errorf("%s: diverges at byte %d (a=%d bytes, b=%d bytes)\n a: %s\n b: %s",
		kind, i, len(a), len(b), window(a, i), window(b, i))
}

// window extracts the bytes around the divergence point with a caret-ish
// prefix so the mismatch is readable in test logs.
func window(b []byte, i int) string {
	start := i - 60
	if start < 0 {
		start = 0
	}
	end := i + 60
	if end > len(b) {
		end = len(b)
	}
	return fmt.Sprintf("...%q...", b[start:end])
}

// Golden compares a run's artifacts against recorded golden files under
// dir: <name>.outcomes.json, <name>.snapshot.json and <name>.report.txt byte
// for byte, and the trace through the SHA-256 hex digest in <name>.trace.sha256 (traces run to
// megabytes; the digest pins them just as exactly). An absent artifact has
// no file. Goldens are behaviour contracts recorded from a reference run of
// the code, so nothing here rewrites them.
func Golden(t testing.TB, dir, name string, got Artifacts) {
	t.Helper()
	files := []struct {
		suffix string
		data   []byte
	}{
		{".outcomes.json", got.Outcomes},
		{".snapshot.json", got.Snapshot},
		{".trace.sha256", traceDigest(got.Trace)},
		{".report.txt", got.Report},
	}
	for _, f := range files {
		if f.data == nil {
			continue
		}
		path := filepath.Join(dir, name+f.suffix)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("simtest: reading golden: %v", err)
		}
		if err := diffBytes(path, want, f.data); err != nil {
			t.Fatalf("simtest: drifted from golden: %v", err)
		}
	}
}

// traceDigest renders a trace's SHA-256 as one hex line (nil for no trace).
func traceDigest(trace []byte) []byte {
	if trace == nil {
		return nil
	}
	sum := sha256.Sum256(trace)
	return []byte(hex.EncodeToString(sum[:]) + "\n")
}
