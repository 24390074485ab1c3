package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// Graph serialization: together with plan serialization (internal/sched),
// a scheduled deployment round-trips through bytes — the graph here, the
// allocations and 128-byte kernels there. Reference implementations
// (RefSpec) and live profiler counts are deliberately not serialized: the
// former are host-side closures, the latter runtime state.

type graphJSON struct {
	Name           string   `json:"name"`
	UnitsPerSample int      `json:"units_per_sample"`
	Ops            []opJSON `json:"ops"`
}

type opJSON struct {
	ID              int    `json:"id"`
	Name            string `json:"name"`
	Kind            int    `json:"kind"`
	MACsPerUnit     int64  `json:"macs_per_unit,omitempty"`
	InBytesPerUnit  int64  `json:"in_bytes_per_unit,omitempty"`
	OutBytesPerUnit int64  `json:"out_bytes_per_unit,omitempty"`
	WeightBytes     int64  `json:"weight_bytes,omitempty"`
	Space           [6]int `json:"space,omitempty"`
	Dynamic         bool   `json:"dynamic,omitempty"`
	MaxUnits        int    `json:"max_units"`
	SwitchOf        int    `json:"switch_of"`
	Branch          int    `json:"branch"`
	NumBranches     int    `json:"num_branches,omitempty"`
	MergeOf         int    `json:"merge_of"`
	MaskInput       int    `json:"mask_input"`
	Inputs          []int  `json:"inputs,omitempty"`
	Outputs         []int  `json:"outputs,omitempty"`
}

// Encode writes the graph structure as JSON.
func (g *Graph) Encode(w io.Writer) error {
	out := graphJSON{Name: g.Name, UnitsPerSample: g.UnitsPerSample}
	for _, op := range g.Ops {
		oj := opJSON{
			ID:              int(op.ID),
			Name:            op.Name,
			Kind:            int(op.Kind),
			MACsPerUnit:     op.MACsPerUnit,
			InBytesPerUnit:  op.InBytesPerUnit,
			OutBytesPerUnit: op.OutBytesPerUnit,
			WeightBytes:     op.WeightBytes,
			Space:           op.Space,
			Dynamic:         op.Dynamic,
			MaxUnits:        op.MaxUnits,
			SwitchOf:        int(op.SwitchOf),
			Branch:          op.Branch,
			NumBranches:     op.NumBranches,
			MergeOf:         int(op.MergeOf),
			MaskInput:       int(op.MaskInput),
		}
		for _, in := range op.Inputs {
			oj.Inputs = append(oj.Inputs, int(in))
		}
		for _, o := range op.Outputs {
			oj.Outputs = append(oj.Outputs, int(o))
		}
		out.Ops = append(out.Ops, oj)
	}
	return json.NewEncoder(w).Encode(out)
}

// DecodeGraph reads a graph previously written by Encode, re-validating the
// structural rules.
func DecodeGraph(r io.Reader) (*Graph, error) {
	var in graphJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("graph: decoding: %w", err)
	}
	if in.UnitsPerSample < 1 {
		return nil, fmt.Errorf("graph %q: units per sample %d", in.Name, in.UnitsPerSample)
	}
	g := &Graph{Name: in.Name, UnitsPerSample: in.UnitsPerSample}
	for i, oj := range in.Ops {
		if oj.ID != i {
			return nil, fmt.Errorf("graph %q: op ids must be dense, got %d at %d", in.Name, oj.ID, i)
		}
		op := &Op{
			ID:              OpID(oj.ID),
			Name:            oj.Name,
			Kind:            Kind(oj.Kind),
			MACsPerUnit:     oj.MACsPerUnit,
			InBytesPerUnit:  oj.InBytesPerUnit,
			OutBytesPerUnit: oj.OutBytesPerUnit,
			WeightBytes:     oj.WeightBytes,
			Space:           oj.Space,
			Dynamic:         oj.Dynamic,
			MaxUnits:        oj.MaxUnits,
			SwitchOf:        OpID(oj.SwitchOf),
			Branch:          oj.Branch,
			NumBranches:     oj.NumBranches,
			MergeOf:         OpID(oj.MergeOf),
			MaskInput:       OpID(oj.MaskInput),
		}
		for _, inID := range oj.Inputs {
			if inID < 0 || inID >= len(in.Ops) {
				return nil, fmt.Errorf("graph %q: op %s references input %d outside graph", in.Name, op.Name, inID)
			}
			op.Inputs = append(op.Inputs, OpID(inID))
		}
		for _, outID := range oj.Outputs {
			if outID < 0 || outID >= len(in.Ops) {
				return nil, fmt.Errorf("graph %q: op %s references output %d outside graph", in.Name, op.Name, outID)
			}
			op.Outputs = append(op.Outputs, OpID(outID))
		}
		g.Ops = append(g.Ops, op)
		switch op.Kind {
		case KindInput:
			g.inputs = append(g.inputs, op.ID)
		case KindOutput:
			g.outputs = append(g.outputs, op.ID)
		}
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}
