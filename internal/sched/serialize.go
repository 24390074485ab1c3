package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"strconv"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// Plan serialization: a compiled plan is what gets "loaded onto the
// hardware" (Figure 4), so it must survive a round trip through bytes —
// allocations as structured metadata, and every kernel in its on-chip
// 128-byte template format. A deployment pipeline can schedule once and ship
// the artifact.

type planJSON struct {
	Policy   Policy        `json:"policy"`
	Segments []segmentJSON `json:"segments"`
}

type segmentJSON struct {
	Index           int            `json:"index"`
	Ops             []int          `json:"ops"`
	WeightBytes     int64          `json:"weight_bytes"`
	InBytesPerUnit  int64          `json:"in_bytes_per_unit"`
	OutBytesPerUnit int64          `json:"out_bytes_per_unit"`
	Plans           []opPlanJSON   `json:"plans"`
	EntityOf        map[string]int `json:"entity_of"`
}

type opPlanJSON struct {
	Lead        int          `json:"lead"`
	Fused       []int        `json:"fused,omitempty"`
	BaseTiles   int          `json:"base_tiles"`
	Region      [2]int       `json:"region"`
	Partner     int          `json:"partner"`
	PairLeader  bool         `json:"pair_leader,omitempty"`
	GroupLeader int          `json:"group_leader"`
	Values      []int        `json:"values,omitempty"`
	Options     []optionJSON `json:"options"`
}

type optionJSON struct {
	Tiles int `json:"tiles"`
	// Kernels holds each kernel's 128-byte on-chip metadata.
	Kernels [][]byte `json:"kernels,omitempty"`
}

// Encode writes the plan to w. Dense (full-kernel) options serialize without
// kernels; they are re-derived on demand after decoding.
func (p *Plan) Encode(w io.Writer) error {
	out := planJSON{Policy: p.Policy}
	for _, seg := range p.Segments {
		sj := segmentJSON{
			Index:           seg.Index,
			WeightBytes:     seg.WeightBytes,
			InBytesPerUnit:  seg.InBytesPerUnit,
			OutBytesPerUnit: seg.OutBytesPerUnit,
			EntityOf:        entityOf(seg.Entities),
		}
		for _, id := range seg.Ops {
			sj.Ops = append(sj.Ops, int(id))
		}
		for _, op := range seg.Entities {
			pj := opPlanJSON{
				Lead:        int(op.Lead),
				BaseTiles:   op.BaseTiles,
				Region:      op.Region,
				Partner:     int(op.Partner),
				PairLeader:  op.PairLeader,
				GroupLeader: int(op.GroupLeader),
				Values:      op.Values,
			}
			for _, f := range op.Fused {
				pj.Fused = append(pj.Fused, int(f))
			}
			for _, o := range op.Options {
				oj := optionJSON{Tiles: o.Tiles}
				if o.set != nil {
					for _, v := range o.set.Values() {
						k, err := o.set.Select(v)
						if err != nil {
							return fmt.Errorf("sched: encoding plan: %w", err)
						}
						blob := k.Encode()
						oj.Kernels = append(oj.Kernels, blob[:])
					}
				}
				pj.Options = append(pj.Options, oj)
			}
			sj.Plans = append(sj.Plans, pj)
		}
		out.Segments = append(out.Segments, sj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// entityOf is the encoded entity_of map: every entity member's operator
// (lead and fused followers) to its entity's lead.
func entityOf(ents []*OpPlan) map[string]int {
	m := map[string]int{}
	for _, op := range ents {
		m[strconv.Itoa(int(op.Lead))] = int(op.Lead)
		for _, f := range op.Fused {
			m[strconv.Itoa(int(f))] = int(op.Lead)
		}
	}
	return m
}

// DecodePlan reads a plan previously written by Encode, rebinding it to the
// graph it was scheduled for. The plan gets a fresh compile memo of g for
// its full-kernel compiles.
func DecodePlan(r io.Reader, g *graph.Graph) (*Plan, error) {
	var in planJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("sched: decoding plan: %w", err)
	}
	p := &Plan{Policy: in.Policy}
	for _, sj := range in.Segments {
		seg := &Segment{
			Index:           sj.Index,
			WeightBytes:     sj.WeightBytes,
			InBytesPerUnit:  sj.InBytesPerUnit,
			OutBytesPerUnit: sj.OutBytesPerUnit,
		}
		// Every op reference must land inside the graph: a plan for a
		// different (or corrupted) graph would otherwise panic the first time
		// the simulator dereferences it. Partner and GroupLeader may be
		// graph.None.
		inGraph := func(id int) error {
			if id < 0 || id >= len(g.Ops) {
				return fmt.Errorf("sched: plan references op %d outside graph", id)
			}
			return nil
		}
		inGraphOrNone := func(id int) error {
			if id == int(graph.None) {
				return nil
			}
			return inGraph(id)
		}
		// pos holds each operator's position in Ops plus one. Entity
		// members, each lead followed by its fused operators, must name
		// compute operators of the segment in Ops order, as Encode writes
		// them, so no operator belongs to two entities.
		pos := make([]int, len(g.Ops))
		for i, id := range sj.Ops {
			if err := inGraph(id); err != nil {
				return nil, err
			}
			seg.Ops = append(seg.Ops, graph.OpID(id))
			pos[id] = i + 1
		}
		last := 0
		member := func(id int) error {
			if err := inGraph(id); err != nil {
				return err
			}
			if pos[id] <= last || !g.Ops[id].Kind.IsCompute() {
				return fmt.Errorf("sched: segment %d: entity member op %d is not a compute op of the segment in op order", sj.Index, id)
			}
			last = pos[id]
			return nil
		}
		for _, pj := range sj.Plans {
			if err := member(pj.Lead); err != nil {
				return nil, err
			}
			if err := inGraphOrNone(pj.Partner); err != nil {
				return nil, err
			}
			if err := inGraphOrNone(pj.GroupLeader); err != nil {
				return nil, err
			}
			op := &OpPlan{
				Lead:        graph.OpID(pj.Lead),
				BaseTiles:   pj.BaseTiles,
				Region:      pj.Region,
				Partner:     graph.OpID(pj.Partner),
				PairLeader:  pj.PairLeader,
				GroupLeader: graph.OpID(pj.GroupLeader),
				Values:      pj.Values,
			}
			for _, f := range pj.Fused {
				if err := member(f); err != nil {
					return nil, err
				}
				op.Fused = append(op.Fused, graph.OpID(f))
			}
			for _, oj := range pj.Options {
				opt := &AllocOption{Tiles: oj.Tiles}
				if len(oj.Kernels) > 0 {
					ks := make([]*kernels.Kernel, 0, len(oj.Kernels))
					for _, blob := range oj.Kernels {
						if len(blob) != kernels.MetaBytes {
							return nil, fmt.Errorf("sched: kernel blob of %d bytes, want %d",
								len(blob), kernels.MetaBytes)
						}
						var arr [kernels.MetaBytes]byte
						copy(arr[:], blob)
						k, err := kernels.Decode(arr)
						if err != nil {
							return nil, fmt.Errorf("sched: decoding kernel for op %d: %w", pj.Lead, err)
						}
						ks = append(ks, k)
					}
					set, err := kernels.NewSet(ks)
					if err != nil {
						return nil, fmt.Errorf("sched: rebuilding kernel set for op %d: %w", pj.Lead, err)
					}
					opt.set = set
				}
				op.Options = append(op.Options, opt)
			}
			seg.Entities = append(seg.Entities, op)
		}
		if !maps.Equal(sj.EntityOf, entityOf(seg.Entities)) {
			return nil, fmt.Errorf("sched: segment %d: entity_of disagrees with the segment's entities", sj.Index)
		}
		p.Segments = append(p.Segments, seg)
	}
	p.comp = NewCompiler(g)
	return p, nil
}
