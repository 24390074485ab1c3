// Package core orchestrates the full Adyna workflow of Figure 4 — the
// paper's primary contribution assembled from the substrates: the model
// parser output (a dynamic operator graph), the dynamism-aware scheduler,
// the multi-kernel hardware machine, the on-chip profiler, and the periodic
// re-scheduling / re-sampling loop. It also runs every comparison design of
// the evaluation under identical traces.
package core

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/baselines"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Design identifies one of the systems compared in Figure 9 (plus the
// real-time scheduling alternative of Figure 12).
type Design string

// The designs of the evaluation.
const (
	DesignGPU         Design = "GPU"
	DesignMTile       Design = "M-tile"
	DesignMTenant     Design = "M-tenant"
	DesignAdynaStatic Design = "Adyna(static)"
	DesignFullKernel  Design = "full-kernel"
	DesignAdyna       Design = "Adyna"
	DesignRealtime    Design = "real-time"
)

// Figure9Designs lists the designs of the overall-performance figure, in the
// paper's order.
func Figure9Designs() []Design {
	return []Design{DesignGPU, DesignMTile, DesignMTenant, DesignAdynaStatic, DesignFullKernel, DesignAdyna}
}

// ParseDesign resolves a CLI design argument — the canonical name or its
// common lowercase alias — to a Design. Shared by every command so the same
// spelling works everywhere.
func ParseDesign(s string) (Design, error) {
	switch strings.ToLower(s) {
	case "gpu":
		return DesignGPU, nil
	case "mtile", "m-tile":
		return DesignMTile, nil
	case "mtenant", "m-tenant":
		return DesignMTenant, nil
	case "static", "adyna-static", "adyna(static)":
		return DesignAdynaStatic, nil
	case "full", "full-kernel":
		return DesignFullKernel, nil
	case "adyna":
		return DesignAdyna, nil
	case "realtime", "real-time":
		return DesignRealtime, nil
	}
	return "", fmt.Errorf("core: unknown design %q (want gpu, mtile, mtenant, static, full, adyna, or realtime)", s)
}

// RunConfig parameterizes one simulated run.
type RunConfig struct {
	// HW is the accelerator configuration (Table III by default).
	HW hw.Config
	// Batch is the batch size in samples (paper default: 128).
	Batch int
	// Batches is the measured trace length.
	Batches int
	// Warmup is the number of profile-only batches fed to the profiler
	// before scheduling (Adyna's "initial profiling result").
	Warmup int
	// Seed drives all trace randomness.
	Seed int64
	// OnlineSchedCycles is the per-dynamic-operator host scheduling latency
	// of the real-time design (Figure 12's swept variable).
	OnlineSchedCycles int64
	// Trace, when non-nil, collects a telemetry recording of every machine
	// brought up under this config: each Bringup registers its own recorder
	// and the run's kernel/NoC/HBM/plan/batch events land in it (see
	// internal/telemetry). nil — the default — keeps recording disabled at
	// zero hot-path cost.
	Trace *telemetry.Trace
	// TraceName names the recorder a Bringup registers in Trace (default
	// "<design>/<model>"). Sweeps that run the same design and model more
	// than once must set it to keep recorder names unique — the trace
	// writer's determinism contract orders recorders by name.
	TraceName string
	// WrapGen, when non-nil, wraps the workload's trace generator right after
	// construction — the hook the CLIs use to override a model's density
	// behaviour (workload.NewDensityWalk, workload.NewFixedDensities) without
	// the model knowing. nil leaves the model's own generator in place.
	WrapGen func(workload.TraceGen) workload.TraceGen
}

// ExecWindow is the batch-window granularity every machine design executes
// at (the paper's 40-batch reconfiguration period).
const ExecWindow = 40

// DefaultRunConfig returns the evaluation defaults.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		HW:      hw.Default(),
		Batch:   models.DefaultBatchSize,
		Batches: 200,
		Warmup:  40,
		Seed:    1,
	}
}

func (rc RunConfig) validate() error {
	if rc.Batch < 1 || rc.Batches < 1 {
		return fmt.Errorf("core: batch %d / batches %d must be positive", rc.Batch, rc.Batches)
	}
	if rc.Warmup < 0 {
		return fmt.Errorf("core: negative warmup %d", rc.Warmup)
	}
	return rc.HW.Validate()
}

// policyFor maps a design to its scheduling policy (machine-based designs
// only).
func policyFor(d Design) (sched.Policy, accel.Options, error) {
	switch d {
	case DesignMTile:
		return sched.MTile(), accel.Options{}, nil
	case DesignAdynaStatic:
		return sched.AdynaStatic(), accel.Options{}, nil
	case DesignFullKernel:
		return sched.FullKernelIdeal(), accel.Options{}, nil
	case DesignAdyna:
		return sched.Adyna(), accel.Options{}, nil
	case DesignRealtime:
		return sched.FullKernelIdeal(), accel.Options{}, nil
	}
	return sched.Policy{}, accel.Options{}, fmt.Errorf("core: design %q does not run on the machine", d)
}

// Run executes one design on one workload and returns its result. All
// designs see the identical trace for the given seed, so results are
// directly comparable.
func Run(d Design, modelName string, rc RunConfig) (metrics.RunResult, error) {
	return run(d, modelName, rc, nil)
}

// RunWithPolicy runs a machine design with an arbitrary policy adjustment:
// the ablations override the re-scheduling period (Section V-C), the
// per-operator kernel budget (Section VII), tile sharing, branch grouping
// and runtime fitting through it.
func RunWithPolicy(d Design, modelName string, rc RunConfig, mutate func(*sched.Policy)) (metrics.RunResult, error) {
	return run(d, modelName, rc, mutate)
}

// Setup is a brought-up machine design, ready to execute measured batches:
// the workload, the machine with the warmup profile observed and the initial
// plan loaded, the policy it was scheduled under, and the trace source
// positioned just past the warmup batches.
type Setup struct {
	// W is the workload; M the machine with warmup profile observed and the
	// initial plan loaded; Policy the scheduling policy the plan was built
	// under; Src the trace source positioned just past the warmup batches.
	W      *models.Workload
	M      *accel.Machine
	Policy sched.Policy
	Src    *workload.Source
	// Rec is the telemetry recorder attached to M (nil when RunConfig.Trace
	// was nil). Layers above the machine — the serving loop — add their own
	// tracks to it.
	Rec *telemetry.Recorder
	// Plan is the initial plan loaded into M. Serving layers that evict a
	// machine's configuration (time-sliced multi-tenancy) re-load it to
	// charge the context-switch cost of bringing the tenant back on chip.
	Plan *sched.Plan
	// Comp is the bring-up's kernel compile memo: every later solve on W's
	// graph — re-schedules, plan-cache misses and ahead-of-time variants —
	// goes through it, so each kernel is compiled once per bring-up.
	Comp *sched.Compiler
}

// Bringup assembles a machine design the way every runner does before its
// measured window: build the workload and machine, feed the warmup trace to
// the hardware profiler (Adyna's "initial profiling result"), schedule the
// initial plan from that profile, and load it (the first load is free).
// mutate optionally adjusts the policy before scheduling. Shared by the
// offline runners here and the online serving layer (internal/serve).
func Bringup(d Design, modelName string, rc RunConfig, mutate func(*sched.Policy)) (*Setup, error) {
	if err := rc.validate(); err != nil {
		return nil, err
	}
	pol, opts, err := policyFor(d)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&pol)
	}
	if d == DesignRealtime {
		opts.OnlineSchedLatencyCycles = rc.OnlineSchedCycles
	}
	w, err := models.ByName(modelName, rc.Batch)
	if err != nil {
		return nil, err
	}
	if rc.WrapGen != nil {
		w.Gen = rc.WrapGen(w.Gen)
	}
	m, err := accel.New(rc.HW, w.Graph, opts)
	if err != nil {
		return nil, err
	}
	var rec *telemetry.Recorder
	if rc.Trace != nil {
		name := rc.TraceName
		if name == "" {
			name = string(d) + "/" + modelName
		}
		rec = rc.Trace.Recorder(name)
		m.SetRecorder(rec)
	}
	src := workload.NewSource(rc.Seed)
	for _, b := range w.GenTrace(src, rc.Warmup, rc.Batch) {
		units, err := w.Graph.AssignUnits(b.Units, b.Routing)
		if err != nil {
			return nil, err
		}
		if err := m.Profiler().ObserveBatch(units, b.Routing, b.Density); err != nil {
			return nil, err
		}
	}
	comp := sched.NewCompiler(w.Graph)
	plan, err := comp.Schedule(rc.HW, pol, m.Profiler())
	if err != nil {
		return nil, err
	}
	if err := m.LoadPlan(plan); err != nil {
		return nil, err
	}
	return &Setup{W: w, M: m, Policy: pol, Src: src, Rec: rec, Plan: plan, Comp: comp}, nil
}

func run(d Design, modelName string, rc RunConfig, mutate func(*sched.Policy)) (metrics.RunResult, error) {
	switch d {
	case DesignGPU, DesignMTenant:
		if err := rc.validate(); err != nil {
			return metrics.RunResult{}, err
		}
		w, err := models.ByName(modelName, rc.Batch)
		if err != nil {
			return metrics.RunResult{}, err
		}
		if rc.WrapGen != nil {
			w.Gen = rc.WrapGen(w.Gen)
		}
		src := workload.NewSource(rc.Seed)
		w.GenTrace(src, rc.Warmup, rc.Batch) // keep the measured trace aligned with the machine designs
		meas := w.GenTrace(src, rc.Batches, rc.Batch)
		if d == DesignGPU {
			return baselines.GPU(rc.HW, w, meas)
		}
		return baselines.MTenant(rc.HW, w, meas)
	}

	setup, err := Bringup(d, modelName, rc, mutate)
	if err != nil {
		return metrics.RunResult{}, err
	}
	w, m, pol := setup.W, setup.M, setup.Policy
	meas := w.GenTrace(setup.Src, rc.Batches, rc.Batch)

	// All machine designs execute in fixed windows (multi-segment models
	// stream a window through each segment in turn), so weight amortization
	// and pipeline fill costs are identical across designs; only policies
	// with a resample period actually re-schedule between windows.
	period := pol.ResamplePeriod
	if period <= 0 {
		period = ExecWindow
	}
	for start := 0; start < len(meas); start += period {
		end := start + period
		if end > len(meas) {
			end = len(meas)
		}
		if start > 0 && pol.ResamplePeriod > 0 {
			// Periodic report: re-schedule and re-sample from the live
			// profile, reconfigure (drain + kernel reload), then age the
			// profiling window.
			plan, err := setup.Comp.Schedule(rc.HW, pol, m.Profiler())
			if err != nil {
				return metrics.RunResult{}, err
			}
			if err := m.LoadPlan(plan); err != nil {
				return metrics.RunResult{}, err
			}
			m.Profiler().Reset()
		}
		if err := m.Run(meas[start:end]); err != nil {
			return metrics.RunResult{}, err
		}
	}

	st := m.Stats()
	return metrics.RunResult{
		Design:         string(d),
		Model:          w.Name,
		Batches:        st.Batches,
		Cycles:         st.Cycles,
		MACs:           st.MACs,
		UsefulMACs:     st.UsefulMACs,
		SRAMBytes:      st.SRAMBytes,
		HBMBytes:       st.HBMBytes,
		NoCByteHops:    st.NoCByteHops,
		PEUtil:         m.PEUtilization(),
		HBMUtil:        m.HBMUtilization(),
		ReconfigCycles: st.ReconfigCycles,
	}, nil
}

// RunAll executes several designs on one workload under the identical trace,
// fanning the independent simulations out across all CPUs. Every design run
// is self-contained (its own trace source, graph, and machine), so the
// results are identical to a serial loop.
func RunAll(designs []Design, modelName string, rc RunConfig) (map[Design]metrics.RunResult, error) {
	return RunAllWorkers(designs, modelName, rc, 0)
}

// RunAllWorkers is RunAll with an explicit worker count (<= 0 means one per
// CPU, runner.Serial forces the sequential path).
func RunAllWorkers(designs []Design, modelName string, rc RunConfig, workers int) (map[Design]metrics.RunResult, error) {
	rs, err := runner.Map(workers, len(designs), func(i int) (metrics.RunResult, error) {
		r, err := Run(designs[i], modelName, rc)
		if err != nil {
			return metrics.RunResult{}, fmt.Errorf("core: %s on %s: %w", designs[i], modelName, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Design]metrics.RunResult, len(designs))
	for i, d := range designs {
		out[d] = rs[i]
	}
	return out, nil
}

// BatchLatencies runs a machine design and returns its per-batch completion
// latencies in cycles (window-relative). Only the pipelined machine designs
// have latencies to measure.
func BatchLatencies(d Design, modelName string, rc RunConfig) ([]float64, error) {
	setup, err := Bringup(d, modelName, rc, nil)
	if err != nil {
		return nil, err
	}
	n := rc.Batches
	if n > ExecWindow {
		n = ExecWindow
	}
	if err := setup.M.Run(setup.W.GenTrace(setup.Src, n, rc.Batch)); err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for _, l := range setup.M.Latencies() {
		out = append(out, float64(l.Cycles()))
	}
	return out, nil
}
