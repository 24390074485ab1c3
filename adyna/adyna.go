// Package adyna is the public API of the Adyna reproduction: a
// hardware-software co-design for dynamic-architecture neural network
// (DynNN) inference, after "Adyna: Accelerating Dynamic Neural Networks with
// Adaptive Scheduling" (HPCA 2025).
//
// The package surfaces four layers:
//
//   - Dynamic operator graphs (the paper's unified representation): build
//     custom DynNNs with NewGraphBuilder, or load one of the paper's five
//     evaluated workloads with LoadModel.
//   - Dynamism-aware scheduling: Schedule turns a graph plus a profile into
//     a multi-kernel dataflow plan under a Policy.
//   - The accelerator machine: NewMachine simulates a scheduled plan over a
//     routing trace at transaction level.
//   - The evaluation harness: Run/RunAll execute complete comparisons
//     against the paper's baseline designs and return comparable results.
//
// See examples/ for runnable end-to-end programs.
package adyna

import (
	"io"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/parser"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Config is the accelerator hardware configuration (Table III).
type Config = hw.Config

// DefaultConfig returns the paper's Table III configuration: 12x12 tiles of
// 32x32 FP16 MACs at 1 GHz, 512 kB scratchpads, 6 HBM2 stacks, a 2D-torus
// NoC — roughly an A100's peak FLOPs and bandwidth.
func DefaultConfig() Config { return hw.Default() }

// Design identifies one of the systems the evaluation compares.
type Design = core.Design

// The available designs: the paper's baselines and Adyna variants.
const (
	DesignGPU         = core.DesignGPU
	DesignMTile       = core.DesignMTile
	DesignMTenant     = core.DesignMTenant
	DesignAdynaStatic = core.DesignAdynaStatic
	DesignFullKernel  = core.DesignFullKernel
	DesignAdyna       = core.DesignAdyna
)

// RunConfig parameterizes an evaluation run.
type RunConfig = core.RunConfig

// DefaultRunConfig returns the paper's evaluation defaults (batch 128).
func DefaultRunConfig() RunConfig { return core.DefaultRunConfig() }

// Result is the outcome of one run: latency, utilization, traffic.
type Result = metrics.RunResult

// Run executes one design on one of the named workloads.
func Run(d Design, model string, rc RunConfig) (Result, error) {
	return core.Run(d, model, rc)
}

// RunAll executes several designs under the identical trace.
func RunAll(designs []Design, model string, rc RunConfig) (map[Design]Result, error) {
	return core.RunAll(designs, model, rc)
}

// RunWithKernelBudget runs a machine design with an overridden per-operator
// kernel budget (the Section VII sampling ablation).
func RunWithKernelBudget(d Design, model string, rc RunConfig, budget int) (Result, error) {
	return core.RunWithPolicy(d, model, rc, func(p *sched.Policy) { p.KernelBudget = budget })
}

// Models lists the named workloads of the paper's Table I.
func Models() []string { return models.Names() }

// Workload couples a dynamic operator graph with its trace generator.
type Workload = models.Workload

// LoadModel builds one of the paper's workloads ("skipnet", "pabee",
// "fbsnet", "tutel-moe", "dpsnet", or the hybrid "adavit") at the given
// batch size.
func LoadModel(name string, batch int) (*Workload, error) {
	return models.ByName(name, batch)
}

// GraphBuilder constructs custom dynamic operator graphs: ordinary operators
// plus Switch/Merge/Sink for the dynamic structure (Section IV).
type GraphBuilder = graph.Builder

// NewGraphBuilder starts a new dynamic operator graph. unitsPerSample is 1
// unless the model folds additional dimensions (patches) onto the batch.
func NewGraphBuilder(name string, unitsPerSample int) *GraphBuilder {
	return graph.NewBuilder(name, unitsPerSample)
}

// Graph is a built dynamic operator graph.
type Graph = graph.Graph

// ParseModel builds a dynamic operator graph from the textual model
// description format of the model parser (see internal/parser for the
// grammar): ordinary operators plus switch/merge/sink dynamic structure.
func ParseModel(src string) (*Graph, error) { return parser.Parse(src) }

// Routing is one switch's per-batch routing decision; BatchRouting maps
// every switch to its decision.
type (
	Routing      = graph.Routing
	BatchRouting = graph.BatchRouting
)

// ConvSpec describes a convolution layer for GraphBuilder.Conv2D.
type ConvSpec = graph.ConvSpec

// Policy selects the scheduler's mechanisms; the presets mirror the paper's
// compared designs.
type Policy = sched.Policy

// Policy presets.
var (
	PolicyAdyna       = sched.Adyna
	PolicyAdynaStatic = sched.AdynaStatic
	PolicyMTile       = sched.MTile
	PolicyFullKernel  = sched.FullKernelIdeal
)

// Plan is a scheduled multi-kernel dataflow scheme.
type Plan = sched.Plan

// Profiler is the on-chip statistics collector feeding the scheduler.
type Profiler = profiler.Profiler

// Schedule produces a plan for g under pol, using prof's statistics when
// available (pass nil for worst-case scheduling).
func Schedule(cfg Config, g *Graph, pol Policy, prof *Profiler) (*Plan, error) {
	return sched.Schedule(cfg, g, pol, prof)
}

// Machine is the transaction-level accelerator simulator.
type Machine = accel.Machine

// MachineOptions tune the machine (e.g. the real-time-scheduling latency of
// Figure 12).
type MachineOptions = accel.Options

// NewMachine builds a machine for cfg and g.
func NewMachine(cfg Config, g *Graph, opts MachineOptions) (*Machine, error) {
	return accel.New(cfg, g, opts)
}

// Source is the deterministic random source all trace generation flows from.
type Source = workload.Source

// NewSource returns a deterministic random source.
func NewSource(seed int64) *Source { return workload.NewSource(seed) }

// Batch is one generated inference batch (unit count plus routing).
type Batch = workload.Batch

// EnergyBreakdown is the Figure 11 energy split in millijoules.
type EnergyBreakdown = energy.Breakdown

// EnergyOf converts a result's activity counters to an energy breakdown.
func EnergyOf(r Result) EnergyBreakdown {
	return energy.Of(energy.Counters{
		MACs:        r.MACs,
		SRAMBytes:   r.SRAMBytes,
		HBMBytes:    r.HBMBytes,
		NoCByteHops: r.NoCByteHops,
	})
}

// Geomean returns the geometric mean of positive values (the aggregation the
// paper's figures use).
func Geomean(xs []float64) float64 { return metrics.Geomean(xs) }

// Percentile returns the p-quantile of xs (e.g. batch latencies).
func Percentile(xs []float64, p float64) float64 { return metrics.Percentile(xs, p) }

// EncodeGraph / DecodeGraph serialize a dynamic operator graph; together
// with Plan.Encode / DecodePlan they form the deployable artifact (graph
// structure plus compiled kernels in their 128-byte on-chip format).
func EncodeGraph(w io.Writer, g *Graph) error { return g.Encode(w) }

// DecodeGraph reads a graph written by EncodeGraph.
func DecodeGraph(r io.Reader) (*Graph, error) { return graph.DecodeGraph(r) }

// DecodePlan reads a plan written by Plan.Encode, rebinding it to g.
func DecodePlan(r io.Reader, g *Graph) (*Plan, error) { return sched.DecodePlan(r, g) }

// Recording is a serialized routing trace (record once, replay anywhere).
type Recording = workload.Recording

// RecordTrace converts generated batches into a serializable recording.
func RecordTrace(model string, batchSamples int, seed int64, batches []Batch) *Recording {
	return workload.Record(model, batchSamples, seed, batches)
}

// LoadRecording reads a recording produced by Recording.Save.
func LoadRecording(r io.Reader) (*Recording, error) { return workload.LoadRecording(r) }

// Tensor is a dense float32 tensor used by the functional executor
// (Graph.Execute) to demonstrate that dynamic routing is lossless.
type Tensor = tensor.Tensor

// NewTensor allocates a zero tensor with the given dimensions (first
// dimension is the batch).
func NewTensor(dims ...int) *Tensor {
	return tensor.New(tensor.MustShape(dims...))
}
