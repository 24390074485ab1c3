package main

import (
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
