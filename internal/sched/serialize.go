package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

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
			EntityOf:        map[string]int{},
		}
		for _, id := range seg.Ops {
			sj.Ops = append(sj.Ops, int(id))
		}
		for op, lead := range seg.EntityOf {
			sj.EntityOf[fmt.Sprint(int(op))] = int(lead)
		}
		// Deterministic order: walk seg.Ops.
		done := map[graph.OpID]bool{}
		for _, id := range seg.Ops {
			op, ok := seg.Plans[id]
			if !ok || done[id] {
				continue
			}
			done[id] = true
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

// Clone returns a copy of the plan that shares no mutable state with the
// receiver: not the plan-scoped eval cache and its counters, and not the
// full-kernel on-demand stores. A fleet hands each replica a clone of a
// shared cached plan so that every replica's cost-model memo and counters
// stay its own. The clone shares what is immutable or locked: the kernel
// sets, and the compile memo, so its on-demand compiles reuse every kernel
// the original's compiler holds. Clone goes when the eval memo moves to the
// machine that reads it (ROADMAP's "Immutable plans" item, step (a)).
func (p *Plan) Clone() *Plan {
	cp := &Plan{Policy: p.Policy, comp: p.comp}
	for _, seg := range p.Segments {
		s := *seg
		s.Ops = slices.Clone(seg.Ops)
		s.EntityOf = maps.Clone(seg.EntityOf)
		s.Plans = make(map[graph.OpID]*OpPlan, len(seg.Plans))
		for lead, op := range seg.Plans {
			o := *op
			o.Fused = slices.Clone(op.Fused)
			o.Values = slices.Clone(op.Values)
			o.Options = make([]*AllocOption, len(op.Options))
			for i, opt := range op.Options {
				o.Options[i] = &AllocOption{Tiles: opt.Tiles, set: opt.set}
			}
			s.Plans[lead] = &o
		}
		cp.Segments = append(cp.Segments, &s)
	}
	return cp
}

// DecodePlan reads a plan previously written by Encode, rebinding it to the
// graph it was scheduled for.
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
			Plans:           map[graph.OpID]*OpPlan{},
			EntityOf:        map[graph.OpID]graph.OpID{},
		}
		for _, id := range sj.Ops {
			if id < 0 || id >= len(g.Ops) {
				return nil, fmt.Errorf("sched: plan references op %d outside graph", id)
			}
			seg.Ops = append(seg.Ops, graph.OpID(id))
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
		for opStr, lead := range sj.EntityOf {
			var opID int
			if _, err := fmt.Sscanf(opStr, "%d", &opID); err != nil {
				return nil, fmt.Errorf("sched: bad entity key %q", opStr)
			}
			if err := inGraph(opID); err != nil {
				return nil, err
			}
			if err := inGraph(lead); err != nil {
				return nil, err
			}
			seg.EntityOf[graph.OpID(opID)] = graph.OpID(lead)
		}
		for _, pj := range sj.Plans {
			if err := inGraph(pj.Lead); err != nil {
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
				if err := inGraph(f); err != nil {
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
						k.Op = op.Lead
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
			seg.Plans[op.Lead] = op
		}
		p.Segments = append(p.Segments, seg)
	}
	return p, nil
}
