// Package core orchestrates the full Adyna workflow of Figure 4 — the
// paper's primary contribution assembled from the substrates: the model
// parser output (a dynamic operator graph), the dynamism-aware scheduler,
// the multi-kernel hardware machine, the on-chip profiler, and the periodic
// re-scheduling / re-sampling loop. It also runs every comparison design of
// the evaluation under identical traces: RunJobs is the one multi-run
// offline path, generating each batch trace once and sharing it read-only
// across every design, policy and hardware variant submitted on it.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/baselines"
	"repro/internal/graph"
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

// validateTrace checks the fields a batch trace is generated from.
func (rc RunConfig) validateTrace() error {
	if rc.Batch < 1 || rc.Batches < 1 {
		return fmt.Errorf("core: batch %d / batches %d must be positive", rc.Batch, rc.Batches)
	}
	if rc.Warmup < 0 {
		return fmt.Errorf("core: negative warmup %d", rc.Warmup)
	}
	return nil
}

func (rc RunConfig) validate() error {
	if err := rc.validateTrace(); err != nil {
		return err
	}
	return rc.HW.Validate()
}

// newWorkload builds the named model with rc's generator override applied,
// over g when it is not nil (a graph of that model at rc.Batch) and over a
// fresh graph otherwise.
func newWorkload(modelName string, rc RunConfig, g *graph.Graph) (*models.Workload, error) {
	var w *models.Workload
	var err error
	if g == nil {
		w, err = models.ByName(modelName, rc.Batch)
	} else {
		w, err = models.On(modelName, g)
		if err == nil && w.DefaultBatch != rc.Batch {
			// A model built at another batch size has other MaxUnits.
			err = fmt.Errorf("core: graph %s was built for batch %d, not %d", g.Name, w.DefaultBatch, rc.Batch)
		}
	}
	if err != nil {
		return nil, err
	}
	if rc.WrapGen != nil {
		w.Gen = rc.WrapGen(w.Gen)
	}
	return w, nil
}

// traceKey is what a batch trace depends on, bar RunConfig.WrapGen (a
// function, so not comparable): the model and rc's trace fields. HW is not
// part of it.
type traceKey struct {
	model                  string
	batch, warmup, batches int
	seed                   int64
}

func keyOf(modelName string, rc RunConfig) traceKey {
	return traceKey{modelName, rc.Batch, rc.Warmup, rc.Batches, rc.Seed}
}

// batchTrace is one model's batch trace for a run config: the warmup
// batches the profiler observes before the initial schedule, then the
// measured batches every design executes, drawn in that order from one
// Source seeded with RunConfig.Seed, plus the workload that generated them.
// Runs only read it — graphs are immutable — so any number of designs,
// hardware variants and goroutines may share one batchTrace and its graph.
type batchTrace struct {
	w                *models.Workload
	warmup, measured []workload.Batch
	key              traceKey
}

// newBatchTrace generates modelName's trace for rc. It depends on rc's
// Batch, Seed, Warmup, Batches and WrapGen, never on HW.
func newBatchTrace(modelName string, rc RunConfig) (*batchTrace, error) {
	if err := rc.validateTrace(); err != nil {
		return nil, err
	}
	w, err := newWorkload(modelName, rc, nil)
	if err != nil {
		return nil, err
	}
	src := workload.NewSource(rc.Seed)
	warm := w.GenTrace(src, rc.Warmup, rc.Batch)
	return &batchTrace{w: w, warmup: warm, measured: w.GenTrace(src, rc.Batches, rc.Batch), key: keyOf(modelName, rc)}, nil
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

// Run executes one design on one workload and returns its result. Every
// design sees the identical trace for the given seed, so results are
// directly comparable. Callers running several designs, policies or
// hardware variants submit them to RunJobs, which generates each trace once;
// the results are the same.
func Run(d Design, modelName string, rc RunConfig) (metrics.RunResult, error) {
	return RunWithPolicy(d, modelName, rc, nil)
}

// RunWithPolicy runs a machine design with an arbitrary policy adjustment:
// the ablations override the re-scheduling period (Section V-C), the
// per-operator kernel budget (Section VII), tile sharing, branch grouping
// and runtime fitting through it.
func RunWithPolicy(d Design, modelName string, rc RunConfig, mutate func(*sched.Policy)) (metrics.RunResult, error) {
	tr, err := newBatchTrace(modelName, rc)
	if err != nil {
		return metrics.RunResult{}, err
	}
	return runOnTrace(d, tr, rc, mutate)
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
	// Comp is the kernel compile memo of W's graph: every later solve on it
	// — re-schedules, plan-cache misses and ahead-of-time variants — goes
	// through it, so each kernel is compiled once per compiler. Bring-ups
	// handed one compiler (BringupOn) share it and its graph.
	Comp *sched.Compiler
}

// Bringup assembles a machine design the way every runner does before its
// measured window: build the workload and machine, feed the warmup trace to
// the hardware profiler (Adyna's "initial profiling result"), schedule the
// initial plan from that profile, and load it (the first load is free).
// mutate optionally adjusts the policy before scheduling. The online serving
// layer (internal/serve) brings sessions up through it and keeps drawing
// batches from Setup.Src; offline runs bring up on a shared batch trace.
func Bringup(d Design, modelName string, rc RunConfig, mutate func(*sched.Policy)) (*Setup, error) {
	return BringupOn(nil, d, modelName, rc, mutate)
}

// BringupOn is Bringup through the given compile memo: the workload, the
// machine and every solve use comp's graph, so the sessions of one model
// brought up on one compiler (a fleet's replicas, an mtserve's same-model
// tenants) compile each kernel once between them, whatever their hardware
// configs and seeds. comp's graph must be modelName's at rc.Batch. A nil comp
// builds a fresh graph and compiler, which is Bringup.
func BringupOn(comp *sched.Compiler, d Design, modelName string, rc RunConfig, mutate func(*sched.Policy)) (*Setup, error) {
	if err := rc.validate(); err != nil {
		return nil, err
	}
	var g *graph.Graph
	if comp != nil {
		g = comp.Graph()
	}
	w, err := newWorkload(modelName, rc, g)
	if err != nil {
		return nil, err
	}
	src := workload.NewSource(rc.Seed)
	s, err := bringup(d, modelName, w, rc, mutate, w.GenTrace(src, rc.Warmup, rc.Batch), comp)
	if err != nil {
		return nil, err
	}
	s.Src = src
	return s, nil
}

// bringup is BringupOn on a built workload and given warmup batches; the
// returned Setup has no Src. A nil comp builds a compiler for w's graph.
func bringup(d Design, modelName string, w *models.Workload, rc RunConfig, mutate func(*sched.Policy), warm []workload.Batch, comp *sched.Compiler) (*Setup, error) {
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
	var units []int
	for _, b := range warm {
		if units, err = w.Graph.AssignUnits(units, b.Units, b.Routing); err != nil {
			return nil, err
		}
		if err := m.Profiler().ObserveBatch(units, b.Routing, b.Density); err != nil {
			return nil, err
		}
	}
	if comp == nil {
		comp = sched.NewCompiler(w.Graph)
	}
	plan, err := comp.Schedule(rc.HW, pol, m.Profiler())
	if err != nil {
		return nil, err
	}
	if err := m.LoadPlan(plan); err != nil {
		return nil, err
	}
	return &Setup{W: w, M: m, Policy: pol, Rec: rec, Plan: plan, Comp: comp}, nil
}

// runOnTrace is RunWithPolicy on a trace built by newBatchTrace for the same
// model and trace fields of rc (Batch, Seed, Warmup, Batches, WrapGen); rc.HW
// and the policy may differ between runs on one trace. The machine designs
// bring up on tr.warmup and execute tr.measured; GPU and M-tenant execute
// tr.measured. tr, its workload and graph included, is only read.
func runOnTrace(d Design, tr *batchTrace, rc RunConfig, mutate func(*sched.Policy)) (metrics.RunResult, error) {
	if err := rc.validate(); err != nil {
		return metrics.RunResult{}, err
	}
	if k := keyOf(tr.key.model, rc); k != tr.key {
		return metrics.RunResult{}, fmt.Errorf("core: trace generated for %+v, run config wants %+v", tr.key, k)
	}
	w, meas := tr.w, tr.measured
	switch d {
	case DesignGPU:
		return baselines.GPU(rc.HW, w, meas)
	case DesignMTenant:
		return baselines.MTenant(rc.HW, w, meas)
	}

	setup, err := bringup(d, tr.key.model, w, rc, mutate, tr.warmup, nil)
	if err != nil {
		return metrics.RunResult{}, err
	}
	m, pol := setup.M, setup.Policy

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
// fanning the independent simulations out across all CPUs through RunJobs.
func RunAll(designs []Design, modelName string, rc RunConfig) (map[Design]metrics.RunResult, error) {
	jobs := make([]Job, len(designs))
	for i, d := range designs {
		jobs[i] = Job{Design: d, Model: modelName, RC: rc}
	}
	rs, err := RunJobs(0, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[Design]metrics.RunResult, len(designs))
	for i, d := range designs {
		out[d] = rs[i]
	}
	return out, nil
}

// Job is one offline run, what RunWithPolicy takes as arguments.
type Job struct {
	// Design and Model name what runs.
	Design Design
	Model  string
	// RC is the run's config; its trace fields pick the trace it shares.
	RC RunConfig
	// Policy optionally adjusts a machine design's scheduling policy (as
	// RunWithPolicy's mutate); nil runs the design's own.
	Policy func(*sched.Policy)
}

// RunJobs runs jobs on at most workers goroutines (runner.Map's worker
// semantics) and returns their results in job order, identical to running
// each job alone with RunWithPolicy. Jobs with the same model and trace
// fields (Batch, Seed, Warmup, Batches) share one batch trace: the first of
// them to run generates it and the last to take it releases it. Dispatch is
// trace-major — each trace's jobs in turn, in order of first appearance — so
// only about one trace per worker is live at a time, whatever order the
// caller listed the jobs in.
//
// Precondition: every job shares RC.WrapGen (a function, so it cannot be
// part of the trace key). Callers derive all jobs from one base config.
func RunJobs(workers int, jobs []Job) ([]metrics.RunResult, error) {
	slots := map[traceKey]*traceSlot{}
	var firsts []*traceSlot // in order of first appearance
	for i, j := range jobs {
		k := keyOf(j.Model, j.RC)
		s := slots[k]
		if s == nil {
			s = &traceSlot{model: j.Model, rc: j.RC}
			slots[k] = s
			firsts = append(firsts, s)
		}
		s.jobs = append(s.jobs, i)
	}
	order := make([]int, 0, len(jobs))
	for _, s := range firsts {
		s.left.Store(int32(len(s.jobs)))
		order = append(order, s.jobs...)
	}
	rs, err := runner.Map(workers, len(order), func(n int) (metrics.RunResult, error) {
		j := jobs[order[n]]
		tr, err := slots[keyOf(j.Model, j.RC)].take()
		if err != nil {
			return metrics.RunResult{}, fmt.Errorf("core: %s: %w", j.Model, err)
		}
		r, err := runOnTrace(j.Design, tr, j.RC, j.Policy)
		if err != nil {
			return metrics.RunResult{}, fmt.Errorf("core: %s on %s: %w", j.Design, j.Model, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]metrics.RunResult, len(jobs))
	for n, i := range order {
		out[i] = rs[n]
	}
	return out, nil
}

// traceSlot hands one batch trace to a fixed number of jobs. The first job
// to take it generates it; the last clears the slot, so a trace lives only
// while its jobs run, not for the whole sweep (generating every trace of the
// Figure 9 matrix up front more than triples the live heap).
type traceSlot struct {
	model string
	rc    RunConfig // the first job's: its trace fields and WrapGen
	jobs  []int     // indices of the jobs that take the trace
	once  sync.Once
	tr    *batchTrace
	err   error
	left  atomic.Int32 // jobs yet to take the trace
}

// take returns the slot's trace; each of its jobs calls it exactly once.
func (s *traceSlot) take() (*batchTrace, error) {
	s.once.Do(func() { s.tr, s.err = newBatchTrace(s.model, s.rc) })
	tr, err := s.tr, s.err
	if s.left.Add(-1) == 0 {
		// Every other job read the slot before its own decrement.
		s.tr = nil
	}
	return tr, err
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
