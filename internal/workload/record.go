package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// Recording is a serialized routing trace: everything needed to replay the
// exact same dynamic behaviour against the same model, across processes. It
// substitutes for the paper's recorded inference traces (e.g. the SkipNet on
// ImageNet trace behind Figure 6).
type Recording struct {
	// Model is the workload name the trace was generated for.
	Model string `json:"model"`
	// BatchSamples is the batch size in samples.
	BatchSamples int `json:"batch_samples"`
	// Seed is the generator seed (for provenance).
	Seed int64 `json:"seed"`
	// Batches holds the per-batch routing decisions.
	Batches []RecordedBatch `json:"batches"`
}

// RecordedBatch is the JSON form of one Batch.
type RecordedBatch struct {
	// Units is the batch's dynamic unit count.
	Units int `json:"units"`
	// Routing maps the switch operator ID (as a string, JSON object keys)
	// to the per-branch unit index lists.
	Routing map[string][][]int32 `json:"routing"`
	// Density is the batch's density dyn-value in (0,1]; omitted (zero) for
	// dense batches, so recordings of routing-only models are unchanged.
	Density float64 `json:"density,omitempty"`
}

// Record converts batches generated for graph g into a serializable
// recording, keyed by switch operator ID.
func Record(g *graph.Graph, model string, batchSamples int, seed int64, batches []Batch) *Recording {
	rec := &Recording{Model: model, BatchSamples: batchSamples, Seed: seed}
	sws := g.Switches()
	for _, b := range batches {
		rb := RecordedBatch{Units: b.Units, Routing: make(map[string][][]int32, len(b.Routing)), Density: b.Density}
		for o, r := range b.Routing {
			rb.Routing[strconv.Itoa(int(sws[o]))] = r.Branch
		}
		rec.Batches = append(rec.Batches, rb)
	}
	return rec
}

// Replay converts a recording back into batches for graph g: every batch
// must route each of g's switches, and nothing else.
func (rec *Recording) Replay(g *graph.Graph) ([]Batch, error) {
	out := make([]Batch, 0, len(rec.Batches))
	nsw := len(g.Switches())
	for i, rb := range rec.Batches {
		if rb.Units < 0 {
			return nil, fmt.Errorf("workload: batch %d has negative units", i)
		}
		rt := make(graph.BatchRouting, nsw)
		for key, branches := range rb.Routing {
			// Only canonical keys, so distinct keys are distinct switches.
			id, err := strconv.Atoi(key)
			if err != nil || strconv.Itoa(id) != key {
				return nil, fmt.Errorf("workload: batch %d has bad switch key %q", i, key)
			}
			o := g.SwitchOrdinal(graph.OpID(id))
			if o < 0 {
				return nil, fmt.Errorf("workload: batch %d routes %q, not a switch of %s", i, key, g.Name)
			}
			for k, br := range branches {
				for _, u := range br {
					if u < 0 || int(u) >= rb.Units {
						return nil, fmt.Errorf("workload: batch %d switch %s branch %d routes unit %d outside [0,%d)",
							i, key, k, u, rb.Units)
					}
				}
			}
			rt[o] = graph.Routing{Branch: branches}
		}
		if len(rb.Routing) != nsw {
			return nil, fmt.Errorf("workload: batch %d routes %d switches, %s has %d", i, len(rb.Routing), g.Name, nsw)
		}
		if rb.Density < 0 || rb.Density > 1 {
			return nil, fmt.Errorf("workload: batch %d has density %v outside (0,1]", i, rb.Density)
		}
		out = append(out, Batch{Index: i, Units: rb.Units, Routing: rt, Density: rb.Density})
	}
	return out, nil
}

// Save writes the recording as JSON.
func (rec *Recording) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rec)
}

// LoadRecording reads a recording from JSON.
func LoadRecording(r io.Reader) (*Recording, error) {
	var rec Recording
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("workload: decoding recording: %w", err)
	}
	return &rec, nil
}

// SwitchStats summarizes one switch's routing behaviour over a trace.
type SwitchStats struct {
	// Switch identifies the switch operator the statistics describe.
	Switch graph.OpID
	// BranchMean is the mean unit count per branch per batch.
	BranchMean []float64
	// BranchActive is the fraction of batches each branch was active in.
	BranchActive []float64
	// MeanArrived is the mean unit count reaching the switch.
	MeanArrived float64
}

// Stats computes per-switch routing statistics over a trace, for trace
// inspection tools.
func Stats(g *graph.Graph, batches []Batch) ([]SwitchStats, error) {
	sws := g.Switches()
	out := make([]SwitchStats, len(sws))
	for o, swID := range sws {
		n := g.Op(swID).NumBranches
		out[o] = SwitchStats{
			Switch:       swID,
			BranchMean:   make([]float64, n),
			BranchActive: make([]float64, n),
		}
	}
	var units []int
	for _, b := range batches {
		var err error
		if units, err = g.AssignUnits(units, b.Units, b.Routing); err != nil {
			return nil, err
		}
		for o, swID := range sws {
			st := &out[o]
			st.MeanArrived += float64(units[swID])
			r := b.Routing[o]
			for k := 0; k < len(st.BranchMean) && k < len(r.Branch); k++ {
				st.BranchMean[k] += float64(len(r.Branch[k]))
				if len(r.Branch[k]) > 0 {
					st.BranchActive[k]++
				}
			}
		}
	}
	if len(batches) > 0 {
		inv := 1 / float64(len(batches))
		for o := range out {
			st := &out[o]
			st.MeanArrived *= inv
			for k := range st.BranchMean {
				st.BranchMean[k] *= inv
				st.BranchActive[k] *= inv
			}
		}
	}
	return out, nil
}
