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

// MustAll is All that panics on error, for benchmarks and examples.
func MustAll(batchSamples int) []*Workload {
	ws, err := All(batchSamples)
	if err != nil {
		panic(err)
	}
	return ws
}

// ByName returns the named workload at the given batch size.
func ByName(name string, batchSamples int) (*Workload, error) {
	switch name {
	case "skipnet":
		return SkipNet(batchSamples)
	case "pabee":
		return PABEE(batchSamples)
	case "fbsnet":
		return FBSNet(batchSamples)
	case "tutel-moe", "moe":
		return TutelMoE(batchSamples)
	case "dpsnet", "dps":
		return DPSNet(batchSamples)
	case "adavit":
		return AdaViT(batchSamples)
	case "ranet":
		return RANet(batchSamples)
	case "gcn", "gnn":
		return GCN(batchSamples)
	}
	return nil, fmt.Errorf("models: unknown workload %q", name)
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
