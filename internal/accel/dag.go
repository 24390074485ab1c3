package accel

import (
	"fmt"

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

// prodEdge describes one producer of an entity: which entity produces the
// data, whether it is a payload or mask edge, and whether the path crossed a
// merge operator (which changes how transfer bytes are attributed: each
// branch tail sends its own share).
type prodEdge struct {
	from     graph.OpID
	kind     edgeKind
	viaMerge bool
}

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
	from     int // producer's index in segDAG.ents
	kind     edgeKind
	viaMerge bool
	// ways is the transfer's port-level parallelism: min(producer,
	// consumer) region tiles.
	ways int
	wire noc.Wire // producer's lead tile to the consumer's
}

// compileSegment builds a segment's template: it derives the entity DAG by
// resolving each entity lead's graph inputs through the control operators
// (switch, merge, sink), places every entity's lead tile through the plan
// config's live→physical table, resolves every edge's route on net, and
// gives every entity its full pipeline-stage token on env.
func compileSegment(env *sim.Env, g *graph.Graph, seg *sched.Segment, tiles hw.TileMap, net *noc.NoC) (*segDAG, error) {
	inSeg := map[graph.OpID]bool{}
	for _, id := range seg.Ops {
		inSeg[id] = true
	}
	// Leads in the order they appear in seg.Ops (topological).
	d := &segDAG{seg: seg}
	index := map[graph.OpID]int{}
	groups := map[graph.OpID]int{}
	for _, id := range seg.Ops {
		if lead, ok := seg.EntityOf[id]; !ok || lead != id {
			continue
		}
		if _, dup := index[id]; dup {
			continue
		}
		op := seg.Plans[id]
		index[id] = len(d.ents)
		e := dagEntity{
			lead:       id,
			plan:       op,
			partnerIdx: -1,
			group:      -1,
			tile:       tiles.Physical(noc.Centroid(op.Region)),
			writeHBM:   true,
			dynamic:    g.Op(id).Dynamic,
			tok:        sim.NewStore(env, 1),
		}
		e.tok.TryPut()
		if op.GroupLeader != graph.None {
			k, ok := groups[op.GroupLeader]
			if !ok {
				k = len(groups)
				groups[op.GroupLeader] = k
			}
			e.group = k
		}
		d.ents = append(d.ents, e)
	}
	d.groups = len(groups)
	for i := range d.ents {
		e := &d.ents[i]
		if op := e.plan; op.Partner != graph.None && op.PairLeader {
			e.partner = seg.Plans[op.Partner]
			if k, ok := index[op.Partner]; ok {
				e.partnerIdx = k
			}
		}
		edges, boundary, err := resolveProducers(g, seg, inSeg, e.lead)
		if err != nil {
			return nil, err
		}
		e.readHBM = boundary
		for _, pe := range edges {
			k, ok := index[pe.from]
			if !ok {
				continue // produced outside the entity table: no payload edge
			}
			from := &d.ents[k]
			from.outs++
			from.writeHBM = false
			ways := min(from.plan.Region[1], e.plan.Region[1])
			e.prods = append(e.prods, dagEdge{
				from: k, kind: pe.kind, viaMerge: pe.viaMerge,
				ways: ways, wire: net.Resolve(from.tile, e.tile),
			})
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
// operators to the producing entities inside the segment. boundary reports
// whether any path left the segment (the entity then streams that input from
// HBM).
func resolveProducers(g *graph.Graph, seg *sched.Segment, inSeg map[graph.OpID]bool, lead graph.OpID) ([]prodEdge, bool, error) {
	var edges []prodEdge
	boundary := false
	seen := map[graph.OpID]bool{}
	var walk func(id graph.OpID, kind edgeKind, viaMerge bool, depth int) error
	walk = func(id graph.OpID, kind edgeKind, viaMerge bool, depth int) error {
		if depth > len(g.Ops) {
			return fmt.Errorf("accel: producer resolution runaway at op %s", g.Op(id).Name)
		}
		if e, ok := seg.EntityOf[id]; ok {
			if e == lead {
				return nil // self-loop through a fused follower: ignore
			}
			key := e
			if !seen[key] {
				seen[key] = true
				edges = append(edges, prodEdge{from: e, kind: kind, viaMerge: viaMerge})
			}
			return nil
		}
		op := g.Op(id)
		if !inSeg[id] {
			boundary = true
			return nil
		}
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
			// A compute op outside this segment's entity table.
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
