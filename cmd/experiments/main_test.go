package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunLightExperiments smoke-tests the CLI glue for the cheap experiments
// (the heavy figures are exercised by the experiments package tests and the
// root benchmarks).
func TestRunLightExperiments(t *testing.T) {
	opt := experiments.Quick()
	for _, exp := range []string{"table3", "table4", "fig6", "sampling"} {
		if err := run(exp, opt); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

// An unrecognized name must fail loudly, naming the valid choices, rather
// than match nothing and exit 0.
func TestRunUnknownExperimentFails(t *testing.T) {
	err := run("doesnotexist", experiments.Quick())
	if err == nil {
		t.Fatal("unknown experiment name returned no error")
	}
	for _, name := range experimentNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
	}
}

// TestStrayArgumentRejected runs main in a child process. The flag package
// stops at the first positional argument, so a stray one must fail by name
// with a non-zero exit instead of silently dropping every flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	if args := os.Getenv("CLI_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$")
	cmd.Env = append(os.Environ(), "CLI_MAIN_ARGS=-quick -exp table3 fig9")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), `"fig9"`) {
		t.Fatalf("stray argument: err=%v, output:\n%s", err, out)
	}
}
