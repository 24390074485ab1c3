package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mtserve"
	"repro/internal/serve"
)

func smokeConfig() serve.Config {
	cfg := serve.Config{
		Model:           "skipnet",
		Design:          core.DesignAdyna,
		RC:              core.DefaultRunConfig(),
		MaxBatch:        8,
		SLOCycles:       3_000_000,
		Reschedule:      true,
		DriftThreshold:  0.02,
		CheckEvery:      8,
		CooldownBatches: 16,
	}
	cfg.RC.Batch = 8
	cfg.RC.Warmup = 10
	cfg.RC.Seed = 1
	return cfg
}

func TestRunSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, smokeConfig(), "", 60, 60_000, 0, 1, false, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "requests") {
		t.Fatalf("report missing from output:\n%s", buf.String())
	}
}

func TestRunCompareSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, smokeConfig(), "", 60, 60_000, 0, 1, true, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Drift-triggered re-scheduling vs static plan") {
		t.Fatalf("drift compare table missing:\n%s", out)
	}
	if strings.Contains(out, "health reschedules") {
		t.Fatalf("fault-only row printed without faults:\n%s", out)
	}
}

func TestRunCompareWithFaults(t *testing.T) {
	cfg := smokeConfig()
	fs, err := loadFaults("fail@2e6:tiles=0-35")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fs
	var buf bytes.Buffer
	if err := run(&buf, cfg, "", 100, 80_000, 0, 1, true, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fault-aware re-scheduling vs frozen plan") {
		t.Fatalf("fault compare table missing:\n%s", out)
	}
	for _, row := range []string{"fault-aware", "health reschedules", "deadline-missed"} {
		if !strings.Contains(out, row) {
			t.Fatalf("row %q missing:\n%s", row, out)
		}
	}
}

func mtSmokeConfig() mtserve.Config {
	cfg := mtserve.Config{
		Design:   core.DesignAdyna,
		RC:       core.DefaultRunConfig(),
		MaxBatch: 8,
	}
	cfg.RC.Batch = 8
	cfg.RC.Warmup = 8
	cfg.RC.Seed = 1
	return cfg
}

func TestRunTenantsSmoke(t *testing.T) {
	def := mtserve.Tenant{SLOCycles: 5_000_000, MeanGapCycles: 80_000, Requests: 40}
	var buf bytes.Buffer
	if err := runTenants(&buf, mtSmokeConfig(), "skipnet,fbsnet:prio=1", "static", def, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Multi-tenant serving (static", "skipnet", "fbsnet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("%q missing from report:\n%s", want, out)
		}
	}
	if err := runTenants(&buf, mtSmokeConfig(), "skipnet", "no-such-mode", def, false); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := runTenants(&buf, mtSmokeConfig(), "", "static", def, false); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestRunTenantsCompareSmoke(t *testing.T) {
	def := mtserve.Tenant{SLOCycles: 5_000_000, MeanGapCycles: 80_000, Requests: 40}
	var buf bytes.Buffer
	if err := runTenants(&buf, mtSmokeConfig(), "skipnet,fbsnet", "", def, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Multi-tenant serving (static", "Multi-tenant serving (timeslice",
		"Multi-tenant serving (repartition", "Chip sharing disciplines",
		"p99 latency", "repartitions",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("%q missing from compare output:\n%s", want, out)
		}
	}
}

func TestLoadFaults(t *testing.T) {
	fs, err := loadFaults("fail@1e6:tiles=0-3;hbm@2e6:factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Events) != 2 {
		t.Fatalf("spec parsed to %d events, want 2", len(fs.Events))
	}

	// A JSON schedule file round-trips through Save/Load.
	path := filepath.Join(t.TempDir(), "faults.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadFaults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 {
		t.Fatalf("file loaded %d events, want 2", len(got.Events))
	}

	if _, err := loadFaults("missing-schedule.json"); err == nil {
		t.Fatal("unreadable .json file accepted")
	}
	if _, err := loadFaults("melt@1e6"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestMain lets a test run main in a child process: with CLI_MAIN_ARGS set,
// the test binary is the serve command run with those arguments.
func TestMain(m *testing.M) {
	if args := os.Getenv("CLI_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"serve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the serve command with args in a child process and returns
// its combined output and exit code.
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
	out, code := runMain(t, "-requests 16 -warmup 4 moe -fleet 2")
	if code == 0 || !strings.Contains(out, `"moe"`) {
		t.Fatalf("stray argument: exit %d, output:\n%s", code, out)
	}
}

// Spec values outside their domain must fail with a non-zero exit and an
// error naming the value, not serve: a NaN or negative fault factor, and a
// negative or NaN tenant parameter (slo and wait included).
func TestBadSpecValuesRejected(t *testing.T) {
	for args, want := range map[string]string{
		"-requests 16 -warmup 4 -faults hbm@10:factor=NaN":               "factor NaN",
		"-requests 16 -warmup 4 -faults noc@10:factor=-2":                "factor -2",
		"-warmup 4 -tenants moe:gap=-30k:req=16":                         "gap=-30k",
		"-warmup 4 -tenants moe:req=16:weight=NaN,fbsnet:req=16":         "weight=NaN",
		"-warmup 4 -tenants moe:req=16,fbsnet:req=16:walk=-0.5:bias=1.6": "walk=-0.5",
		"-warmup 4 -tenants moe:req=16:slo=-5M":                          "slo=-5M",
		"-warmup 4 -tenants moe:req=16:wait=-1":                          "wait=-1",
	} {
		out, code := runMain(t, args)
		if code == 0 || !strings.Contains(out, want) {
			t.Errorf("%s: exit %d, want non-zero naming %q; output:\n%s", args, code, want, out)
		}
	}
}

// Negative or non-finite numeric flags must exit 2 with an error naming the
// flag instead of serving: -slo -100 used to switch deadlines off, -gap
// -1000 ran arrivals backwards in time, -threshold NaN switched drift
// re-planning off, and -pipeline -3 ran at depth 1.
func TestNegativeFlagsRejected(t *testing.T) {
	for args, want := range map[string]string{
		"-requests 16 -warmup 4 -slo -100":                     "-slo -100",
		"-requests 16 -warmup 4 -maxwait -1":                   "-maxwait -1",
		"-requests 16 -warmup 4 -gap -1000":                    "-gap -1000",
		"-requests 16 -warmup 4 -gap NaN":                      "-gap NaN",
		"-requests -5 -warmup 4":                               "-requests -5",
		"-warmup 4 -requests -5 -tenants moe":                  "-requests -5",
		"-requests 16 -warmup 4 -threshold NaN":                "-threshold NaN",
		"-requests 16 -warmup 4 -threshold -0.5":               "-threshold -0.5",
		"-requests 16 -warmup 4 -threshold +Inf":               "-threshold +Inf",
		"-requests 16 -warmup 4 -check -1":                     "-check -1",
		"-requests 16 -warmup 4 -cooldown -3":                  "-cooldown -3",
		"-requests 16 -warmup 4 -hostresched -7":               "-hostresched -7",
		"-warmup 4 -requests 16 -threshold NaN -tenants moe":   "-threshold NaN",
		"-requests 16 -warmup 4 -fleet -2":                     "-fleet -2",
		"-requests 16 -warmup 4 -queuecap -1":                  "-queuecap -1",
		"-warmup 4 -requests 16 -mintiles -4 -tenants moe":     "-mintiles -4",
		"-requests 16 -warmup 4 -plancache-maxdist -1":         "-plancache-maxdist -1",
		"-requests 16 -warmup 4 -plancache-maxdist NaN":        "-plancache-maxdist NaN",
		"-requests 16 -warmup 4 -fleet 2 -fleet-walk -5":       "-fleet-walk -5",
		"-requests 16 -warmup 4 -fleet 2 -fleet-walk NaN":      "-fleet-walk NaN",
		"-requests 16 -warmup 4 -fleet 2 -fleet-classes -3":    "-fleet-classes -3",
		"-warmup 4 -requests 16 -starve NaN -tenants moe":      "-starve NaN",
		"-requests 16 -warmup 4 -ratewalk NaN":                 "-ratewalk NaN",
		"-requests 16 -warmup 4 -denswalk -0.1":                "-denswalk -0.1",
		"-requests 16 -warmup 4 -denswalk 0.1 -denscenter NaN": "-denscenter NaN",
		"-requests 16 -warmup 4 -pipeline -3":                  "-pipeline -3",
		"-requests 16 -warmup 4 -simpar -2 -fleet 2":           "-simpar -2",
	} {
		out, code := runMain(t, args)
		if code != 2 || !strings.Contains(out, want) {
			t.Errorf("%s: exit %d, want 2 naming %q; output:\n%s", args, code, want, out)
		}
	}
}
