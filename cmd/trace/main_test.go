package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordThenInspect(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	if err := run("skipnet", 8, 3, 1, out, ""); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("recording missing: %v", err)
	}
	if err := run("", 0, 0, 0, "", out); err != nil {
		t.Fatalf("inspecting the recording: %v", err)
	}
}

func TestGenerateAndInspectInline(t *testing.T) {
	if err := run("tutel-moe", 8, 2, 3, "", "-"); err != nil {
		t.Fatal(err)
	}
}

func TestNothingToDo(t *testing.T) {
	if err := run("skipnet", 8, 2, 1, "", ""); err == nil {
		t.Fatal("expected nothing-to-do error")
	}
}

func TestUnknownModel(t *testing.T) {
	if err := run("nope", 8, 2, 1, "", "-"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestStrayArgumentRejected runs main in a child process. The flag package
// stops at the first positional argument, so a stray one must fail by name
// with a non-zero exit instead of silently dropping every flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	if args := os.Getenv("CLI_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"trace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$")
	cmd.Env = append(os.Environ(), "CLI_MAIN_ARGS=-batches 2 -stats - dpsnet")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), `"dpsnet"`) {
		t.Fatalf("stray argument: err=%v, output:\n%s", err, out)
	}
}
