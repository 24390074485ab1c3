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
// and attaches control operators to the entity that follows them (trailing
// ones to the last entity). It returns the entities in topological order
// and, per operator, the index of the entity holding it.
func buildEntities(g *graph.Graph) ([]entity, []int32, error) {
	var ents []entity
	owner := make([]int32, len(g.Ops))
	var pendingControl []graph.OpID
	for _, id := range g.Topo() {
		op := g.Op(id)
		if !op.Kind.IsCompute() {
			pendingControl = append(pendingControl, id)
			continue
		}
		if costmodel.IsVector(op.Kind) && len(op.Inputs) == 1 {
			// Fuse into the producer when it is a compute entity with the
			// same dynamic scope and no control op intervenes.
			if in := op.Inputs[0]; g.Op(in).Kind.IsCompute() && sameScope(g, id, in) {
				k := owner[in]
				ents[k].fused = append(ents[k].fused, id)
				owner[id] = k
				continue
			}
		}
		k := int32(len(ents))
		for _, c := range pendingControl {
			owner[c] = k
		}
		ents = append(ents, entity{lead: id, control: pendingControl})
		pendingControl = nil
		owner[id] = k
	}
	if len(ents) == 0 {
		return nil, nil, fmt.Errorf("sched: graph %q has no compute operators", g.Name)
	}
	last := &ents[len(ents)-1]
	for _, c := range pendingControl {
		owner[c] = int32(len(ents) - 1)
		last.control = append(last.control, c)
	}
	return ents, owner, nil
}

func sameScope(g *graph.Graph, a, b graph.OpID) bool {
	oa, ob := g.Op(a), g.Op(b)
	return oa.Dynamic == ob.Dynamic && oa.SwitchOf == ob.SwitchOf && oa.Branch == ob.Branch
}

// segment greedily packs entities into segments bounded by tile count and
// scratchpad capacity (graph segmentation, Section V-A). Each segment is a
// window of ents.
func segment(cfg hw.Config, g *graph.Graph, ents []entity) [][]entity {
	budget := memoryFraction * float64(cfg.TotalScratchpadBytes())
	var segs [][]entity
	start := 0
	var curBytes float64
	live := cfg.LiveTiles()
	for i := range ents {
		need := entityBytes(g, &ents[i])
		if n := i - start; n > 0 && (n+1 > live || curBytes+need > budget) {
			segs = append(segs, ents[start:i])
			start, curBytes = i, 0
		}
		curBytes += need
	}
	return append(segs, ents[start:])
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

// span is one segment's window of the compiler's entity table: ents are the
// entities from index first on. The solve's dense state is indexed by
// position in the window.
type span struct {
	ents  []entity
	first int32
	owner []int32
}

// at returns the window position of the entity holding operator id (as
// lead, follower or attached control op), -1 when it lies outside the
// window.
func (s span) at(id graph.OpID) int {
	if k := s.owner[id] - s.first; k >= 0 && int(k) < len(s.ents) {
		return int(k)
	}
	return -1
}

// leadAt is at for entity leads only.
func (s span) leadAt(id graph.OpID) int {
	if k := s.at(id); k >= 0 && s.ents[k].lead == id {
		return k
	}
	return -1
}

// planSegment allocates tiles, applies grouping and sharing, and compiles
// kernel stores for the segment of index holding sp's entities.
func planSegment(cfg hw.Config, km *kernelMemo, pol Policy, prof *profiler.Profiler, index int, sp span) (*Segment, error) {
	g := km.c.g
	n := len(sp.ents)
	seg := &Segment{Index: index, Entities: make([]*OpPlan, n)}
	for _, e := range sp.ents {
		seg.Ops = append(seg.Ops, e.control...)
		seg.Ops = append(seg.Ops, e.lead)
		seg.Ops = append(seg.Ops, e.fused...)
	}

	// Expected work per entity (frequency-weighted or worst-case). The
	// profile's windowed density mean deflates density-aware operators, so a
	// sparse workload's aggregation entities stop hoarding tiles their zero
	// share would waste.
	dens := 1.0
	if prof != nil {
		dens = prof.OpDensityMean()
	}
	work := make([]float64, n)
	for k := range sp.ents {
		work[k] = entityWork(g, prof, &sp.ents[k], pol.FrequencyWeighted, dens)
		seg.WeightBytes += entityWeights(g, &sp.ents[k])
	}

	// Branch grouping: collapse rarely-active branches of each switch into
	// temporal groups. groupLeader holds each entity's group leader, -1 when
	// ungrouped.
	groupLeader := make([]int, n)
	for k := range groupLeader {
		groupLeader[k] = -1
	}
	if pol.BranchGrouping {
		groupRareBranches(g, pol, prof, sp, work, groupLeader)
	}

	// Proportional tile allocation over allocation units (group leaders and
	// ungrouped entities).
	alloc := allocateTiles(cfg.LiveTiles(), work, groupLeader)

	// Materialize plans.
	cursor := 0
	for k, e := range sp.ents {
		gl := groupLeader[k]
		tiles := alloc[k]
		if gl >= 0 && gl != k {
			tiles = alloc[gl] // grouped entities reuse the leader's tiles
		}
		if tiles < 1 {
			tiles = 1
		}
		op := &OpPlan{
			Lead:        e.lead,
			Fused:       e.fused,
			BaseTiles:   tiles,
			Partner:     graph.None,
			GroupLeader: graph.None,
		}
		if gl >= 0 {
			op.GroupLeader = sp.ents[gl].lead
		}
		if gl < 0 || gl == k {
			op.Region = [2]int{cursor, tiles}
			cursor += tiles
		}
		seg.Entities[k] = op
	}
	// Grouped followers share the leader's region.
	for k, p := range seg.Entities {
		if gl := groupLeader[k]; gl >= 0 && gl != k {
			p.Region = seg.Entities[gl].Region
		}
	}

	// Tile sharing: pair complementary branches and add the 2a:b / a:2b
	// allocation options.
	if pol.TileSharing {
		pairForSharing(g, prof, seg, sp, work)
	}

	// Compile kernel stores for every option of every entity.
	for _, p := range seg.Entities {
		if err := compileEntity(cfg, km, pol, prof, p); err != nil {
			return nil, err
		}
	}

	// Segment boundary footprints.
	for _, e := range sp.ents {
		for _, in := range g.Op(e.lead).Inputs {
			if sp.at(in) < 0 {
				seg.InBytesPerUnit += g.Op(e.lead).InBytesPerUnit
				break
			}
		}
	}
	last := sp.ents[n-1]
	tail := last.lead
	if f := len(last.fused); f > 0 {
		tail = last.fused[f-1]
	}
	seg.OutBytesPerUnit = g.Op(tail).OutBytesPerUnit
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
// switch into temporal groups (Section V-B, branch grouping). work and
// groupLeader are indexed by window position; a group's leader takes the
// group's summed work.
func groupRareBranches(g *graph.Graph, pol Policy, prof *profiler.Profiler,
	sp span, work []float64, groupLeader []int) {

	for _, swID := range g.Switches() {
		if sp.at(swID) < 0 {
			continue
		}
		sw := g.Op(swID)
		var rare [][]int // entity positions per rare branch
		for k := 0; k < sw.NumBranches; k++ {
			frac := branchLoadShare(g, prof, swID, k)
			if frac >= pol.GroupThreshold {
				continue
			}
			var ents []int
			for _, id := range g.BranchOps(swID, k) {
				if e := sp.leadAt(id); e >= 0 {
					ents = append(ents, e)
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
			maxLen = max(maxLen, len(b))
		}
		for i := 0; i < maxLen; i++ {
			var members []int
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

// allocateTiles distributes total tiles across allocation units (entities
// that are not grouped under another) in proportion to expected work,
// guaranteeing one tile each. It returns each entity's tiles by window
// position, 0 for grouped followers.
func allocateTiles(total int, work []float64, groupLeader []int) []int {
	var units []int
	var shares []float64
	var sum float64
	for k, gl := range groupLeader {
		if w := work[k]; gl < 0 || gl == k {
			if w <= 0 {
				w = 1
			}
			units, shares = append(units, k), append(shares, w)
			sum += w
		}
	}
	for i, w := range shares {
		shares[i] = float64(total) * w / sum
	}
	alloc := make([]int, len(work))
	for i, c := range Apportion(nil, shares, 1, total) {
		alloc[units[i]] = c
	}
	return alloc
}

// pairForSharing pairs complementary branches of every switch in the segment
// and gives each paired entity the three allocation ratios of Section V-B.
func pairForSharing(g *graph.Graph, prof *profiler.Profiler, seg *Segment, sp span, work []float64) {
	for _, swID := range g.Switches() {
		if sp.at(swID) < 0 {
			continue
		}
		sw := g.Op(swID)
		if sw.NumBranches < 2 {
			continue
		}
		bi, bj := pickSharePair(g, prof, swID, sw.NumBranches, sp, work)
		if bi < 0 {
			continue
		}
		// Entities of each branch, largest work first.
		entsOf := func(k int) []int {
			var out []int
			for _, id := range g.BranchOps(swID, k) {
				if e := sp.leadAt(id); e >= 0 {
					if p := seg.Entities[e]; p.Partner == graph.None && p.GroupLeader == graph.None {
						out = append(out, e)
					}
				}
			}
			sort.Slice(out, func(a, b int) bool { return work[out[a]] > work[out[b]] })
			return out
		}
		ea, eb := entsOf(bi), entsOf(bj)
		for i := 0; i < min(len(ea), len(eb)); i++ {
			a, b := seg.Entities[ea[i]], seg.Entities[eb[i]]
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
				x = min(max(x, 1), total-1)
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
func pickSharePair(g *graph.Graph, prof *profiler.Profiler, sw graph.OpID, branches int, sp span, work []float64) (int, int) {
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
			if e := sp.leadAt(id); e >= 0 {
				sum += work[e]
			}
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
		return nil // kernels compiled on demand through the plan's compiler
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
