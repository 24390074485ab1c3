package accel

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// edgeKind distinguishes payload edges from control-only (routing mask)
// edges in the entity-level pipeline DAG.
type edgeKind int

const (
	edgeData edgeKind = iota
	edgeMask
)

// segDAG is the compiled template of one segment, built once per LoadPlan:
// the entity-level pipeline structure (who feeds whom, which entities read
// from / write to HBM, the topological order) plus the data movement that
// stays fixed while the plan is loaded — each entity's physical lead tile
// and each producer edge's resolved NoC route. Jobs index it by entity
// position, so preparing a job does no map lookups and sending a chunk
// derives no route. Jobs are the machine's: take wires a pooled job to the
// template it is drawn for.
type segDAG struct {
	seg    *sched.Segment
	ents   []dagEntity // in topological (seg.Ops) order
	edges  int         // producer edges over all entities
	groups int         // temporal-sharing groups
}

// dagEntity is one entity of the segment template.
type dagEntity struct {
	lead graph.OpID
	plan *sched.OpPlan
	// partner is a pair leader's tile-sharing partner plan (nil otherwise);
	// partnerIdx is the partner's entity index, -1 when it has none.
	partner    *sched.OpPlan
	partnerIdx int
	group      int // temporal-sharing group index, -1 when ungrouped
	tile       int // physical lead tile of the region
	// tok is the entity's pipeline-stage token: its tiles process one job
	// at a time, in start (batch) order. Acquiring it serializes the stage
	// across in-flight batches; being per segment as well as per entity, it
	// lets a streamed batch k run segment 1 while batch k+1 runs segment 0.
	tok   *sim.Store
	prods []dagEdge
	// outs counts the consumer edges this entity feeds; outAt is where
	// they start in a job's output-edge array, which groups them by
	// producer in entity order.
	outs, outAt int
	readHBM     bool // some input streams from HBM (crosses the segment boundary)
	writeHBM    bool // no entity consumes the output: it drains to HBM
	dynamic     bool
}

// dagEdge is one producer edge of an entity, with its route resolved.
type dagEdge struct {
	from int // producer's index in segDAG.ents
	kind edgeKind
	// viaMerge reports that the path crossed a merge operator, so each
	// branch tail sends its own share of the transfer.
	viaMerge bool
	// ways is the transfer's port-level parallelism: min(producer,
	// consumer) region tiles.
	ways int
	wire noc.Wire // producer's lead tile to the consumer's
}

// Where an operator lies relative to a segment: the index of the entity
// computing it, or one of these.
const (
	inControl int32 = -1 // a control operator of the segment
	outside   int32 = -2 // not in the segment
)

// compileSegment builds a segment's template: it derives the entity DAG by
// resolving each entity lead's graph inputs through the control operators
// (switch, merge, sink), places every entity's lead tile through the plan
// config's live→physical table, resolves every edge's route on net, and
// gives every entity its full pipeline-stage token on env.
func compileSegment(env *sim.Env, g *graph.Graph, seg *sched.Segment, tiles hw.TileMap, net *noc.NoC) (*segDAG, error) {
	slot := make([]int32, len(g.Ops))
	for i := range slot {
		slot[i] = outside
	}
	for _, id := range seg.Ops {
		slot[id] = inControl
	}
	d := &segDAG{seg: seg, ents: make([]dagEntity, len(seg.Entities))}
	for k, op := range seg.Entities {
		slot[op.Lead] = int32(k)
		for _, f := range op.Fused {
			slot[f] = int32(k)
		}
		e := dagEntity{
			lead:       op.Lead,
			plan:       op,
			partnerIdx: -1,
			group:      -1,
			tile:       tiles.Physical(noc.Centroid(op.Region)),
			writeHBM:   true,
			dynamic:    g.Op(op.Lead).Dynamic,
			tok:        sim.NewStore(env, 1),
		}
		e.tok.TryPut()
		if op.GroupLeader != graph.None {
			// Groups are numbered in order of first appearance.
			same := func(prev dagEntity) bool { return prev.plan.GroupLeader == op.GroupLeader }
			if m := slices.IndexFunc(d.ents[:k], same); m >= 0 {
				e.group = d.ents[m].group
			} else {
				e.group, d.groups = d.groups, d.groups+1
			}
		}
		d.ents[k] = e
	}
	for i := range d.ents {
		e := &d.ents[i]
		if op := e.plan; op.Partner != graph.None && op.PairLeader {
			if k := slot[op.Partner]; k >= 0 && seg.Entities[k].Lead == op.Partner {
				e.partner, e.partnerIdx = seg.Entities[k], int(k)
			}
		}
		edges, boundary, err := resolveProducers(g, slot, e.lead)
		if err != nil {
			return nil, err
		}
		e.readHBM = boundary
		for _, pe := range edges {
			from := &d.ents[pe.from]
			from.outs++
			from.writeHBM = false
			pe.ways = min(from.plan.Region[1], e.plan.Region[1])
			pe.wire = net.Resolve(from.tile, e.tile)
			e.prods = append(e.prods, pe)
			d.edges++
		}
	}
	at := 0
	for i := range d.ents {
		d.ents[i].outAt = at
		at += d.ents[i].outs
	}
	return d, nil
}

// resolveProducers walks the data inputs of an entity lead through control
// operators to the producing entities inside the segment, one edge per
// producer with its route still unresolved; slot places every operator
// relative to the segment. boundary reports whether any path left the
// segment (the entity then streams that input from HBM).
func resolveProducers(g *graph.Graph, slot []int32, lead graph.OpID) ([]dagEdge, bool, error) {
	self := int(slot[lead])
	var edges []dagEdge
	boundary := false
	var walk func(id graph.OpID, kind edgeKind, viaMerge bool, depth int) error
	walk = func(id graph.OpID, kind edgeKind, viaMerge bool, depth int) error {
		if depth > len(g.Ops) {
			return fmt.Errorf("accel: producer resolution runaway at op %s", g.Op(id).Name)
		}
		switch k := int(slot[id]); {
		case k == self:
			return nil // self-loop through a fused follower: ignore
		case k >= 0:
			if !slices.ContainsFunc(edges, func(e dagEdge) bool { return e.from == k }) {
				edges = append(edges, dagEdge{from: k, kind: kind, viaMerge: viaMerge})
			}
			return nil
		case k == int(outside):
			boundary = true
			return nil
		}
		op := g.Op(id)
		switch op.Kind {
		case graph.KindInput:
			boundary = true
		case graph.KindSwitch:
			if err := walk(op.Inputs[0], kind, viaMerge, depth+1); err != nil {
				return err
			}
			// The routing mask must also have arrived (control edge).
			return walk(op.Inputs[1], edgeMask, viaMerge, depth+1)
		case graph.KindMerge:
			for _, in := range op.Inputs {
				if err := walk(in, kind, true, depth+1); err != nil {
					return err
				}
			}
		default:
			// A compute op outside this segment's entities.
			boundary = true
		}
		return nil
	}
	for _, in := range g.Op(lead).Inputs {
		if err := walk(in, edgeData, false, 0); err != nil {
			return nil, false, err
		}
	}
	return edges, boundary, nil
}
