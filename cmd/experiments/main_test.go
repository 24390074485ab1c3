package main

import (
	"errors"
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

// TestMain lets a test run main in a child process: with CLI_MAIN_ARGS set,
// the test binary is the experiments command run with those arguments.
func TestMain(m *testing.M) {
	if args := os.Getenv("CLI_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the experiments command with args in a child process and
// returns its combined output and exit code.
func runMain(t *testing.T, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CLI_MAIN_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// The flag package stops at the first positional argument, so a stray one
// must fail by name with a non-zero exit instead of silently dropping every
// flag after it.
func TestStrayArgumentRejected(t *testing.T) {
	if out, code := runMain(t, "-quick -exp table3 fig9"); code != 2 || !strings.Contains(out, `"fig9"`) {
		t.Fatalf("stray argument: exit %d, output:\n%s", code, out)
	}
}

// A negative count must fail naming its flag, not fall back to the defaults
// and exit 0.
func TestNegativeFlagRejected(t *testing.T) {
	for _, flag := range []string{"-batch", "-batches", "-workers"} {
		if out, code := runMain(t, "-exp table3 "+flag+" -1"); code != 2 || !strings.Contains(out, flag) {
			t.Errorf("%s -1: exit %d, output:\n%s", flag, code, out)
		}
	}
}
