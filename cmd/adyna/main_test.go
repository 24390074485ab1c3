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
	out, err := runMain(t, "TestStrayArgumentRejected", "-batches 2 moe -design static")
	if err == nil || !strings.Contains(string(out), `"moe"`) {
		t.Fatalf("stray argument: err=%v, output:\n%s", err, out)
	}
}

// TestBadDensityRejected: an out-of-domain -density must fail by name with
// a non-zero exit; -density NaN used to run the model's own densities.
func TestBadDensityRejected(t *testing.T) {
	if args := os.Getenv("CLI_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"adyna"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, d := range []string{"NaN", "-0.5", "1.5", "+Inf"} {
		out, err := runMain(t, "TestBadDensityRejected", "-model gcn -batches 4 -density "+d)
		if err == nil || !strings.Contains(string(out), "-density "+d) {
			t.Errorf("-density %s: err=%v, output:\n%s", d, err, out)
		}
	}
}

// runMain re-runs the named test in a child process that calls main with
// args (space-separated) and returns the child's combined output.
func runMain(t *testing.T, test, args string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "CLI_MAIN_ARGS="+args)
	return cmd.CombinedOutput()
}

// TestBatchLatencyFollowsDesign: the "batch latency" line measures the
// selected design's own plan, so a static plan and Adyna's periodically
// re-scheduled one report different latencies.
func TestBatchLatencyFollowsDesign(t *testing.T) {
	if args := os.Getenv("CLI_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"adyna"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	line := func(design string) string {
		out, err := runMain(t, "TestBatchLatencyFollowsDesign", "-model skipnet -batches 12 -design "+design)
		if err != nil {
			t.Fatalf("-design %s: %v\n%s", design, err, out)
		}
		for _, l := range strings.Split(string(out), "\n") {
			if strings.Contains(l, "batch latency") {
				return l
			}
		}
		t.Fatalf("-design %s printed no batch latency line:\n%s", design, out)
		return ""
	}
	if static, adyna := line("static"), line("adyna"); static == adyna {
		t.Fatalf("static and adyna print the same batch latency line: %q", static)
	}
}
