// Package models builds the five DynNNs the paper evaluates (Table I) as
// dynamic operator graphs, together with synthetic trace generators whose
// dyn_dim statistics follow the behaviours the paper reports:
//
//	SkipNet   — dynamic depth  (layer skipping, ResNet backbone, CV)
//	PABEE     — dynamic depth  (early exiting, BERT backbone, NLP)
//	FBSNet    — dynamic width  (channel pruning, CV)
//	Tutel-MoE — dynamic routing (mixture-of-experts, ViT backbone, CV)
//	DPSNet    — dynamic region (patch selection, CV/NLP)
//
// The graphs use paper-faithful backbone shapes; the generators substitute
// for real trained models and datasets (see DESIGN.md for the substitution
// argument).
package models

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/workload"
)

// Workload couples a dynamic operator graph with the trace generator that
// drives it.
type Workload struct {
	// Name is the model name as used in the paper's figures.
	Name string
	// Category is the dynamism category from Table I.
	Category string
	// Graph is the dynamic operator graph.
	Graph *graph.Graph
	// DefaultBatch is the evaluation batch size in samples (paper: 128).
	DefaultBatch int
	// Gen produces per-batch routing decisions. Stateful: distributions
	// drift over time.
	Gen workload.TraceGen
	// Exclusive reports whether every switch routes each arriving unit to
	// exactly one branch (false for top-k MoE and multi-group channel
	// pruning, whose samples broadcast to several branches).
	Exclusive bool
	// GPUFusedRouting reports whether an optimized fused GPU kernel library
	// exists for this model's dynamic operators (Tutel ships one for MoE
	// expert dispatch; the other DynNNs have no such library and degrade to
	// fragmented per-branch execution on GPUs).
	GPUFusedRouting bool
}

// BatchUnits returns the dyn units entering the graph for a batch of the
// given sample count.
func (w *Workload) BatchUnits(batchSamples int) int {
	return batchSamples * w.Graph.UnitsPerSample
}

// GenTrace produces n batches at the given sample count.
func (w *Workload) GenTrace(src *workload.Source, n, batchSamples int) []workload.Batch {
	return workload.Trace(w.Gen, src, n, w.BatchUnits(batchSamples))
}

// DefaultBatchSize is the paper's evaluation batch size.
const DefaultBatchSize = 128

// All returns the five evaluated workloads at the given batch size, in the
// order the paper's figures use.
func All(batchSamples int) ([]*Workload, error) {
	ctors := []func(int) (*Workload, error){SkipNet, PABEE, FBSNet, TutelMoE, DPSNet}
	out := make([]*Workload, 0, len(ctors))
	for _, ctor := range ctors {
		w, err := ctor(batchSamples)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// model is one workload in two halves: its graph at a batch size, and the
// workload — trace generator and metadata — over a built graph.
type model struct {
	graph func(batchSamples int) (*graph.Graph, error)
	on    func(g *graph.Graph) *Workload
}

func (m *model) build(batchSamples int) (*Workload, error) {
	if batchSamples < 1 {
		return nil, fmt.Errorf("models: batch %d must be positive", batchSamples)
	}
	g, err := m.graph(batchSamples)
	if err != nil {
		return nil, err
	}
	return m.on(g), nil
}

var (
	skipNetModel = &model{skipNetGraph, skipNetOn}
	pabeeModel   = &model{pabeeGraph, pabeeOn}
	fbsNetModel  = &model{fbsNetGraph, fbsNetOn}
	moeModel     = &model{moeGraph, moeOn}
	dpsNetModel  = &model{dpsNetGraph, dpsNetOn}
	adaViTModel  = &model{adaViTGraph, adaViTOn}
	raNetModel   = &model{raNetGraph, raNetOn}
	gcnModel     = &model{gcnGraph, gcnOn}
)

// registry maps every accepted workload name, each graph's own name among
// them, to its model.
var registry = map[string]*model{
	"skipnet": skipNetModel, "pabee": pabeeModel, "fbsnet": fbsNetModel,
	"tutel-moe": moeModel, "moe": moeModel, "dpsnet": dpsNetModel, "dps": dpsNetModel,
	"adavit": adaViTModel, "ranet": raNetModel, "gcn": gcnModel, "gnn": gcnModel,
}

// ByName returns the named workload at the given batch size.
func ByName(name string, batchSamples int) (*Workload, error) {
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown workload %q", name)
	}
	return m.build(batchSamples)
}

// On returns the named workload over g, a graph that workload built (at any
// batch size), with a fresh trace generator: the sessions of one model share
// one immutable graph without building it again.
func On(name string, g *graph.Graph) (*Workload, error) {
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown workload %q", name)
	}
	if registry[g.Name] != m {
		return nil, fmt.Errorf("models: graph %s is not %s's", g.Name, name)
	}
	return m.on(g), nil
}

// batchOf returns the batch size in samples g was built for.
func batchOf(g *graph.Graph) int {
	return g.Op(g.Inputs()[0]).MaxUnits / g.UnitsPerSample
}

// Names lists the canonical workload names.
// slowDrift builds a random walk with a weak pull toward its center: large
// long-run wander (so schedules computed from an initial profile decay) but
// slow movement within one 40-batch reconfiguration window (so periodic
// re-scheduling can track it).
func slowDrift(center, lo, hi, stepSD float64) *workload.Drift {
	d := workload.NewDrift(center, lo, hi, stepSD)
	d.Reverting = 0.0008
	return d
}

// Names lists the five paper-evaluation workloads (the design matrix rows).
// ByName additionally accepts the extended models: "adavit", "ranet", and
// the density-aware "gcn".
func Names() []string {
	return []string{"skipnet", "pabee", "fbsnet", "tutel-moe", "dpsnet"}
}

// layOut builds one switch's routing from its picks: owners[k] is the unit
// that picked branch picks[k], in unit order, and count (zeroed, one entry
// per branch) is the caller's scratch. Each branch is a capped window of
// one backing array, nil when nothing picked it, so an append by a
// consumer reallocates instead of overwriting the next branch's units.
func layOut(picks []int, owners []int32, count []int) [][]int32 {
	for _, b := range picks {
		count[b]++
	}
	backing := make([]int32, len(picks))
	branches := make([][]int32, len(count))
	off := 0
	for b, c := range count {
		if c > 0 {
			branches[b] = backing[off : off : off+c]
		}
		off += c
	}
	for k, b := range picks {
		branches[b] = append(branches[b], owners[k])
	}
	return branches
}
