package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/profiler"
	"repro/internal/sampling"
)

// memoryFraction of the chip-wide scratchpad a segment's weights and
// activation buffers may occupy.
const memoryFraction = 0.85

// actBufferUnits is the per-entity activation double-buffering depth used by
// the segmentation memory estimate.
const actBufferUnits = 2

// Schedule produces a complete plan for g under pol from the profile prof. A
// nil prof means no profile: every dynamic operator is planned for its worst
// case, exactly as a profiler with no observations would have it. It is the
// one-shot form of Compiler.Schedule: callers that solve the same graph
// repeatedly hold a Compiler instead, so kernels are compiled once across
// solves.
func Schedule(cfg hw.Config, g *graph.Graph, pol Policy, prof *profiler.Profiler) (*Plan, error) {
	return NewCompiler(g).Schedule(cfg, pol, prof)
}

// entity is an allocation unit: a lead operator plus fused vector followers.
type entity struct {
	lead    graph.OpID
	fused   []graph.OpID
	control []graph.OpID // non-compute ops attached before this entity
}

// buildEntities fuses vector operators into their producing compute operator
// and attaches control operators to the entity that follows them, returning
// entities in topological order.
func buildEntities(g *graph.Graph) (map[graph.OpID]*entity, []graph.OpID, error) {
	ents := map[graph.OpID]*entity{}
	var order []graph.OpID
	// entityOf maps each op to the entity that computes its output.
	entityOf := map[graph.OpID]graph.OpID{}
	var pendingControl []graph.OpID
	for _, id := range g.Topo() {
		op := g.Op(id)
		if !op.Kind.IsCompute() {
			pendingControl = append(pendingControl, id)
			continue
		}
		if costmodel.IsVector(op.Kind) && len(op.Inputs) >= 1 {
			// Fuse into the producer when it is a compute entity with the
			// same dynamic scope and no control op intervenes.
			prodEnt, ok := entityOf[op.Inputs[0]]
			if ok && sameScope(g, id, g.Op(op.Inputs[0]).ID) && len(op.Inputs) == 1 {
				e := ents[prodEnt]
				e.fused = append(e.fused, id)
				entityOf[id] = prodEnt
				continue
			}
		}
		e := &entity{lead: id, control: pendingControl}
		pendingControl = nil
		ents[id] = e
		entityOf[id] = id
		order = append(order, id)
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("sched: graph %q has no compute operators", g.Name)
	}
	// Trailing control ops (output/sink/merge at the very end) attach to the
	// last entity.
	if len(pendingControl) > 0 {
		last := ents[order[len(order)-1]]
		last.control = append(last.control, pendingControl...)
	}
	return ents, order, nil
}

func sameScope(g *graph.Graph, a, b graph.OpID) bool {
	oa, ob := g.Op(a), g.Op(b)
	return oa.Dynamic == ob.Dynamic && oa.SwitchOf == ob.SwitchOf && oa.Branch == ob.Branch
}

// segment greedily packs entities into segments bounded by tile count and
// scratchpad capacity (graph segmentation, Section V-A).
func segment(cfg hw.Config, g *graph.Graph, ents map[graph.OpID]*entity, order []graph.OpID) [][]graph.OpID {
	budget := memoryFraction * float64(cfg.TotalScratchpadBytes())
	var segs [][]graph.OpID
	var cur []graph.OpID
	var curBytes float64
	live := cfg.LiveTiles()
	for _, lead := range order {
		e := ents[lead]
		need := entityBytes(g, e)
		if len(cur) > 0 && (len(cur)+1 > live || curBytes+need > budget) {
			segs = append(segs, cur)
			cur, curBytes = nil, 0
		}
		cur = append(cur, lead)
		curBytes += need
	}
	if len(cur) > 0 {
		segs = append(segs, cur)
	}
	return segs
}

// entityBytes estimates an entity's scratchpad residency requirement.
func entityBytes(g *graph.Graph, e *entity) float64 {
	lead := g.Op(e.lead)
	bytes := float64(lead.WeightBytes)
	bytes += actBufferUnits * float64(lead.InBytesPerUnit+lead.OutBytesPerUnit)
	for _, f := range e.fused {
		op := g.Op(f)
		bytes += float64(op.WeightBytes) + actBufferUnits*float64(op.OutBytesPerUnit)
	}
	return bytes
}

// planSegment allocates tiles, applies grouping and sharing, and compiles
// kernel stores for one segment. ents is the graph's entity table from
// buildEntities.
func planSegment(cfg hw.Config, km *kernelMemo, pol Policy, prof *profiler.Profiler, ents map[graph.OpID]*entity, index int, leads []graph.OpID) (*Segment, error) {
	g := km.c.g
	seg := &Segment{Index: index, Plans: map[graph.OpID]*OpPlan{}, EntityOf: map[graph.OpID]graph.OpID{}}
	inSeg := map[graph.OpID]bool{}
	for _, lead := range leads {
		e := ents[lead]
		seg.Ops = append(seg.Ops, e.control...)
		seg.Ops = append(seg.Ops, lead)
		seg.Ops = append(seg.Ops, e.fused...)
		seg.EntityOf[lead] = lead
		for _, f := range e.fused {
			seg.EntityOf[f] = lead
		}
		for _, id := range seg.Ops {
			inSeg[id] = true
		}
	}

	// Expected work per entity (frequency-weighted or worst-case). The
	// profile's windowed density mean deflates density-aware operators, so a
	// sparse workload's aggregation entities stop hoarding tiles their zero
	// share would waste.
	dens := 1.0
	if prof != nil {
		dens = prof.OpDensityMean()
	}
	work := map[graph.OpID]float64{}
	for _, lead := range leads {
		work[lead] = entityWork(g, prof, ents[lead], pol.FrequencyWeighted, dens)
		seg.WeightBytes += entityWeights(g, ents[lead])
	}

	// Branch grouping: collapse rarely-active branches of each switch into
	// temporal groups.
	groupLeader := map[graph.OpID]graph.OpID{}
	if pol.BranchGrouping {
		groupRareBranches(g, pol, prof, leads, work, groupLeader, inSeg)
	}

	// Proportional tile allocation over allocation units (group leaders and
	// ungrouped entities).
	alloc := allocateTiles(cfg, leads, work, groupLeader)

	// Materialize plans.
	cursor := 0
	for _, lead := range leads {
		gl, grouped := groupLeader[lead]
		tiles := alloc[lead]
		if grouped && gl != lead {
			tiles = alloc[gl] // grouped entities reuse the leader's tiles
		}
		if tiles < 1 {
			tiles = 1
		}
		op := &OpPlan{
			Lead:        lead,
			Fused:       ents[lead].fused,
			BaseTiles:   tiles,
			Partner:     graph.None,
			GroupLeader: graph.None,
		}
		if grouped {
			op.GroupLeader = gl
		}
		if !grouped || gl == lead {
			op.Region = [2]int{cursor, tiles}
			cursor += tiles
		}
		seg.Plans[lead] = op
	}
	// Grouped followers share the leader's region.
	for _, lead := range leads {
		p := seg.Plans[lead]
		if p.GroupLeader != graph.None && p.GroupLeader != lead {
			p.Region = seg.Plans[p.GroupLeader].Region
		}
	}

	// Tile sharing: pair complementary branches and add the 2a:b / a:2b
	// allocation options.
	if pol.TileSharing {
		pairForSharing(g, pol, prof, seg, leads, work)
	}

	// Compile kernel stores for every option of every entity.
	for _, lead := range leads {
		if err := compileEntity(cfg, km, pol, prof, seg.Plans[lead]); err != nil {
			return nil, err
		}
	}

	// Segment boundary footprints.
	for _, lead := range leads {
		op := g.Op(lead)
		for _, in := range op.Inputs {
			if !inSeg[in] {
				seg.InBytesPerUnit += op.InBytesPerUnit
				break
			}
		}
	}
	if len(leads) > 0 {
		lastEnt := ents[leads[len(leads)-1]]
		tail := lastEnt.lead
		if n := len(lastEnt.fused); n > 0 {
			tail = lastEnt.fused[n-1]
		}
		seg.OutBytesPerUnit = g.Op(tail).OutBytesPerUnit
	}
	return seg, nil
}

// entityWork returns the expected MAC load of an entity. densMean is the
// profile's windowed mean density, applied only to density-aware operators
// (1 everywhere else and in the no-profile case, so routing-only models are
// untouched).
func entityWork(g *graph.Graph, prof *profiler.Profiler, e *entity, freqWeighted bool, densMean float64) float64 {
	w := opExpectedWork(prof, g.Op(e.lead), freqWeighted, densMean)
	for _, f := range e.fused {
		w += opExpectedWork(prof, g.Op(f), freqWeighted, densMean)
	}
	return w
}

func opExpectedWork(prof *profiler.Profiler, op *graph.Op, freqWeighted bool, densMean float64) float64 {
	w := expectedUnits(prof, op, freqWeighted) * float64(op.MACsPerUnit)
	if op.DensityAware && densMean > 0 && densMean < 1 {
		w *= densMean
	}
	return w
}

func entityWeights(g *graph.Graph, e *entity) int64 {
	w := g.Op(e.lead).WeightBytes
	for _, f := range e.fused {
		w += g.Op(f).WeightBytes
	}
	return w
}

// expectedUnits is the dyn-value expectation used for allocation: the
// profile mean for dynamic operators under frequency-weighted scheduling,
// the worst case otherwise (Section V-A).
func expectedUnits(prof *profiler.Profiler, op *graph.Op, freqWeighted bool) float64 {
	f := prof.Freq(op.ID)
	if !freqWeighted || f == nil {
		return float64(op.MaxUnits)
	}
	e := f.Expectation()
	if e < 1 {
		e = 1 // a starved operator still needs a tile to exist on
	}
	return e
}

// groupRareBranches merges entities on rarely-activated branches of the same
// switch into temporal groups (Section V-B, branch grouping).
func groupRareBranches(g *graph.Graph, pol Policy, prof *profiler.Profiler,
	leads []graph.OpID, work map[graph.OpID]float64,
	groupLeader map[graph.OpID]graph.OpID, inSeg map[graph.OpID]bool) {

	for _, swID := range g.Switches() {
		if !inSeg[swID] {
			continue
		}
		sw := g.Op(swID)
		var rare [][]graph.OpID // entity leads per rare branch
		for k := 0; k < sw.NumBranches; k++ {
			frac := branchLoadShare(g, prof, swID, k)
			if frac >= pol.GroupThreshold {
				continue
			}
			var ents []graph.OpID
			for _, id := range g.BranchOps(swID, k) {
				if _, isLead := work[id]; isLead {
					ents = append(ents, id)
				}
			}
			if len(ents) > 0 {
				rare = append(rare, ents)
			}
		}
		if len(rare) < 2 {
			continue // grouping needs at least two rare branches
		}
		// Zip the rare branches: the i-th entity of every rare branch shares
		// one tile group; allocation weight is the sum of expectations.
		maxLen := 0
		for _, b := range rare {
			if len(b) > maxLen {
				maxLen = len(b)
			}
		}
		for i := 0; i < maxLen; i++ {
			var members []graph.OpID
			for _, b := range rare {
				if i < len(b) {
					members = append(members, b[i])
				}
			}
			if len(members) < 2 {
				continue
			}
			leader := members[0]
			var sum float64
			for _, m := range members {
				sum += work[m]
				groupLeader[m] = leader
			}
			work[leader] = sum
		}
	}
}

// branchLoadShare estimates how utilized branch k's tiles would be: the
// branch head's expected unit count as a fraction of the worst case, capped
// by how often the branch is active at all. A branch that receives on
// average a couple of units out of hundreds wastes its dedicated tiles —
// exactly the underutilization branch grouping targets (Section V-B).
func branchLoadShare(g *graph.Graph, prof *profiler.Profiler, sw graph.OpID, k int) float64 {
	head := g.Op(sw).Outputs[k]
	op := g.Op(head)
	share := 1.0
	if f := prof.Freq(head); f != nil && f.Total() > 0 && op.MaxUnits > 0 {
		share = f.Expectation() / float64(op.MaxUnits)
	}
	if prof != nil && prof.Batches() > 0 {
		if f := prof.BranchActiveFraction(sw, k); f < share {
			share = f
		}
	}
	return share
}

// allocateTiles distributes the chip's tiles across allocation units in
// proportion to expected work, guaranteeing one tile each (largest-remainder
// apportionment).
func allocateTiles(cfg hw.Config, leads []graph.OpID, work map[graph.OpID]float64,
	groupLeader map[graph.OpID]graph.OpID) map[graph.OpID]int {

	var units []graph.OpID
	for _, lead := range leads {
		if gl, ok := groupLeader[lead]; ok && gl != lead {
			continue
		}
		units = append(units, lead)
	}
	total := cfg.LiveTiles()
	alloc := map[graph.OpID]int{}
	if len(units) == 0 {
		return alloc
	}
	var sum float64
	for _, u := range units {
		w := work[u]
		if w <= 0 {
			w = 1
		}
		sum += w
	}
	type frac struct {
		id   graph.OpID
		rem  float64
		base int
	}
	fracs := make([]frac, 0, len(units))
	used := 0
	for _, u := range units {
		w := work[u]
		if w <= 0 {
			w = 1
		}
		share := float64(total) * w / sum
		base := int(share)
		if base < 1 {
			base = 1
		}
		fracs = append(fracs, frac{id: u, rem: share - float64(base), base: base})
		used += base
	}
	// Hand out leftovers by largest remainder; reclaim overflow from the
	// largest allocations.
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for i := 0; used < total && i < len(fracs); i = (i + 1) % len(fracs) {
		fracs[i].base++
		used++
	}
	for used > total {
		// Shrink the biggest allocation that can still shrink.
		big := -1
		for i := range fracs {
			if fracs[i].base > 1 && (big < 0 || fracs[i].base > fracs[big].base) {
				big = i
			}
		}
		if big < 0 {
			break
		}
		fracs[big].base--
		used--
	}
	for _, f := range fracs {
		alloc[f.id] = f.base
	}
	return alloc
}

// pairForSharing pairs complementary branches of every switch in the segment
// and gives each paired entity the three allocation ratios of Section V-B.
func pairForSharing(g *graph.Graph, pol Policy, prof *profiler.Profiler,
	seg *Segment, leads []graph.OpID, work map[graph.OpID]float64) {

	inSeg := map[graph.OpID]bool{}
	for _, id := range seg.Ops {
		inSeg[id] = true
	}
	for _, swID := range g.Switches() {
		if !inSeg[swID] {
			continue
		}
		sw := g.Op(swID)
		if sw.NumBranches < 2 {
			continue
		}
		bi, bj := pickSharePair(g, prof, swID, sw.NumBranches, work)
		if bi < 0 {
			continue
		}
		// Entities of each branch, largest work first.
		entsOf := func(k int) []graph.OpID {
			var out []graph.OpID
			for _, id := range g.BranchOps(swID, k) {
				if p, ok := seg.Plans[id]; ok && p.Partner == graph.None && p.GroupLeader == graph.None {
					out = append(out, id)
				}
			}
			sort.Slice(out, func(a, b int) bool { return work[out[a]] > work[out[b]] })
			return out
		}
		ea, eb := entsOf(bi), entsOf(bj)
		n := len(ea)
		if len(eb) < n {
			n = len(eb)
		}
		for i := 0; i < n; i++ {
			a, b := seg.Plans[ea[i]], seg.Plans[eb[i]]
			wa, wb := work[ea[i]], work[eb[i]]
			if wa <= 0 {
				wa = 1
			}
			if wb <= 0 {
				wb = 1
			}
			total := a.BaseTiles + b.BaseTiles
			if total < 2 {
				continue
			}
			split := func(ra, rb float64) (int, int) {
				x := int(math.Round(float64(total) * ra / (ra + rb)))
				if x < 1 {
					x = 1
				}
				if x > total-1 {
					x = total - 1
				}
				return x, total - x
			}
			a0, b0 := a.BaseTiles, b.BaseTiles
			a1, b1 := split(2*wa, wb)
			a2, b2 := split(wa, 2*wb)
			a.Partner, b.Partner = b.Lead, a.Lead
			a.PairLeader = true
			a.Options = optionTiles(a0, a1, a2)
			b.Options = optionTiles(b0, b1, b2)
		}
	}
}

// pickSharePair chooses the two branches least likely to be active together
// (profiler co-activation when available, complementary expected load
// otherwise). Returns (-1, -1) when no pair qualifies.
func pickSharePair(g *graph.Graph, prof *profiler.Profiler, sw graph.OpID, branches int, work map[graph.OpID]float64) (int, int) {
	if branches < 2 {
		return -1, -1
	}
	if prof != nil && prof.Batches() > 0 {
		if i, j, ok := prof.LeastCoActivePair(sw); ok {
			return i, j
		}
	}
	// Fallback heuristic: pair the heaviest branch with the lightest so
	// their resource needs complement each other.
	type bw struct {
		k int
		w float64
	}
	loads := make([]bw, branches)
	for k := 0; k < branches; k++ {
		var sum float64
		for _, id := range g.BranchOps(sw, k) {
			sum += work[id]
		}
		loads[k] = bw{k: k, w: sum}
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].w > loads[j].w })
	return loads[0].k, loads[branches-1].k
}

func optionTiles(ts ...int) []*AllocOption {
	out := make([]*AllocOption, len(ts))
	for i, t := range ts {
		out[i] = &AllocOption{Tiles: t}
	}
	return out
}

// compileEntity fills the entity's options with kernel stores.
func compileEntity(cfg hw.Config, km *kernelMemo, pol Policy, prof *profiler.Profiler, p *OpPlan) error {
	if len(p.Options) == 0 {
		p.Options = optionTiles(p.BaseTiles)
	}
	lead := km.c.g.Op(p.Lead)
	if lead.Space[0] == 0 {
		return nil // vector entity: costed directly, no kernel store
	}
	if pol.FullKernel {
		return nil // dense on-demand store
	}
	p.Values = kernelValues(cfg, pol, lead, prof.Freq(lead.ID), len(p.Options), p.Partner != graph.None)
	for _, o := range p.Options {
		set, err := km.set(lead, p.Values, o.Tiles, cfg.HBMBytesPerCycle())
		if err != nil {
			return fmt.Errorf("sched: entity %s: %w", lead.Name, err)
		}
		o.set = set
	}
	return nil
}

// kernelValues chooses the dyn values to compile kernels for.
func kernelValues(cfg hw.Config, pol Policy, op *graph.Op, ft *profiler.FreqTable, options int, shared bool) []int {
	if !op.Dynamic || !pol.MultiKernel {
		return []int{op.MaxUnits}
	}
	budget := pol.KernelBudget
	if budget <= 0 {
		// Per-option share of the tile's kernel budget: the paper's 200
		// kernels divided by (options x sharing-partners).
		div := options
		if shared {
			div *= 2
		}
		budget = cfg.MaxKernelsPerTile() / div
		if budget > cfg.MaxKernelsPerOperator() {
			budget = cfg.MaxKernelsPerOperator()
		}
		if budget < 1 {
			budget = 1
		}
	}
	vals := sampling.Initial(op.MaxUnits, budget)
	if ft != nil && ft.Total() > 0 {
		if nv, err := sampling.ResampleFromTable(vals, ft, pol.ResampleIters); err == nil {
			vals = nv
		}
	}
	return vals
}
