package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestStrayArgumentRejected runs main in a child process. The flag package
// stops at the first positional argument, so a stray one must fail by name
// with a non-zero exit instead of silently dropping every flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	if args := os.Getenv("CLI_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"adyna"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$")
	cmd.Env = append(os.Environ(), "CLI_MAIN_ARGS=-batches 2 moe -design static")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), `"moe"`) {
		t.Fatalf("stray argument: err=%v, output:\n%s", err, out)
	}
}
