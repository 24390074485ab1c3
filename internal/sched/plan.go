package sched

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kernels"
)

// Plan is a complete scheduled dataflow scheme: what gets loaded onto the
// accelerator. Segments execute one after another; within a segment,
// operators run pipelined on disjoint (or deliberately shared) tile groups.
type Plan struct {
	// Policy is the scheduling policy the plan was solved under; its bits
	// also select the machine's runtime behaviour (e.g. runtime fitting).
	Policy Policy
	// Segments lists the plan's segments in execution order.
	Segments []*Segment

	// cache memoizes the cost-model evaluations of this plan's (config,
	// graph) scope. The simulator re-costs every entity for every batch
	// through EvaluateEntityDensity; within one plan those calls repeat a
	// small set of keys. The cache is plan-scoped on purpose: every simulation of the
	// parallel experiment runner schedules its own plan, so the memo table
	// is only ever touched from one goroutine and needs no lock. Lazily
	// created (deserialized plans start without one).
	cache *costmodel.Cache
	// comp is the compile memo the plan was solved through; on-demand
	// full-kernel compiles reuse it, and clones keep it. Decoded plans start
	// without one and get a private compiler on first use.
	comp *Compiler
}

// evalCache returns the plan's memo table for cfg, creating it on first use
// and replacing it if the caller switches hardware configurations (a stale
// config would return costs for the wrong machine).
func (p *Plan) evalCache(cfg hw.Config) *costmodel.Cache {
	if p.cache == nil || p.cache.Config() != cfg {
		p.cache = costmodel.NewCache(cfg)
	}
	return p.cache
}

// compiler returns the plan's compile memo, creating a private one for g on
// first use.
func (p *Plan) compiler(g *graph.Graph) *Compiler {
	if p.comp == nil {
		p.comp = NewCompiler(g)
	}
	return p.comp
}

// CacheStats reports the plan's eval memo hits and misses (zero before the
// first EvaluateEntityDensity call). Exposed for tests and profiling.
func (p *Plan) CacheStats() (hits, misses int64) {
	if p.cache == nil {
		return 0, 0
	}
	return p.cache.Stats()
}

// Segment is one resident group of consecutive operators (Section II-B).
type Segment struct {
	// Index is the segment's position in Plan.Segments.
	Index int
	// Ops lists every operator of the segment in topological order,
	// including control operators (switch/merge/sink) and fused vector ops.
	Ops []graph.OpID
	// Plans maps each allocation entity's lead operator to its plan.
	Plans map[graph.OpID]*OpPlan
	// EntityOf maps every compute operator of the segment (leads and fused
	// followers) to its entity's lead.
	EntityOf map[graph.OpID]graph.OpID
	// WeightBytes is the total parameter footprint loaded from HBM when the
	// segment is (re)configured.
	WeightBytes int64
	// InBytesPerUnit / OutBytesPerUnit are the segment's boundary activation
	// footprints (fetched from / written to HBM per unit).
	InBytesPerUnit, OutBytesPerUnit int64
}

// OpPlan is the allocation and kernel plan of one entity: a matrix (or
// standalone vector) operator plus any vector operators fused into it.
type OpPlan struct {
	// Lead is the entity's lead operator: the matrix (or standalone vector)
	// operator the fused ones follow.
	Lead graph.OpID
	// Fused lists vector operators executed in place on the same tiles
	// (element-wise/pooling/normalization fusion, Section VI-B).
	Fused []graph.OpID
	// BaseTiles is the frequency-weighted allocation before sharing.
	BaseTiles int
	// Region is [start, count] in the linear (row-major) tile enumeration of
	// the chip, used for NoC distance modelling.
	Region [2]int
	// Partner is the tile-sharing partner entity (graph.None when unshared);
	// PairLeader reports whether this entity owns the pair's option choice.
	Partner    graph.OpID
	PairLeader bool
	// GroupLeader is the entity whose tiles this entity temporally shares
	// under branch grouping (graph.None when ungrouped; the leader points to
	// itself).
	GroupLeader graph.OpID
	// Options are the selectable allocations: one normally, three under tile
	// sharing (ratios a:b, 2a:b, a:2b of Section V-B).
	Options []*AllocOption
	// Values are the sampled dyn values kernels exist for (nil for static
	// operators or single-kernel policies, where Options hold one kernel at
	// the maximum).
	Values []int
}

// AllocOption is one selectable tile allocation with its kernel store.
type AllocOption struct {
	// Tiles is how many tiles the entity occupies under this option.
	Tiles int
	// set holds the sampled kernels (nil under FullKernel, where kernels are
	// compiled on demand and memoized in dense).
	set   *kernels.Set
	dense map[int]*kernels.Kernel
}

// kernel returns the kernel the dispatcher would select for the actual dyn
// value v. Under the full-kernel policy it compiles on demand through the
// plan's compile memo.
func (o *AllocOption) kernel(p *Plan, g *graph.Graph, cfg hw.Config, op *graph.Op, v int) (*kernels.Kernel, error) {
	if o.set != nil {
		return o.set.Select(v)
	}
	if v < 1 {
		v = 1
	}
	if k, ok := o.dense[v]; ok {
		return k, nil
	}
	k, err := p.compiler(g).compile(cfg, op, v, o.Tiles)
	if err != nil {
		return nil, err
	}
	if o.dense == nil {
		o.dense = map[int]*kernels.Kernel{}
	}
	o.dense[v] = k
	return k, nil
}

// KernelCount reports how many kernels the option stores on-chip (0 for the
// idealized dense store, which the paper treats as unbounded).
func (o *AllocOption) KernelCount() int {
	if o.set == nil {
		return 0
	}
	return o.set.Len()
}

// Values returns the stored kernel values (nil for dense options).
func (o *AllocOption) StoredValues() []int {
	if o.set == nil {
		return nil
	}
	return o.set.Values()
}

// Entity returns the plan for the entity leading with id.
func (s *Segment) Entity(id graph.OpID) (*OpPlan, bool) {
	p, ok := s.Plans[id]
	return p, ok
}

// TotalTiles returns the tiles the segment's base allocation occupies.
func (s *Segment) TotalTiles() int {
	n := 0
	for _, p := range s.Plans {
		if p.GroupLeader != graph.None && p.GroupLeader != p.Lead {
			continue // grouped entities reuse their leader's tiles
		}
		n += p.BaseTiles
	}
	return n
}

// Validate checks structural invariants of a built plan against the graph
// and hardware: allocations fit the chip, shared pairs are symmetric, kernel
// stores respect the on-chip budget.
func (p *Plan) Validate(cfg hw.Config, g *graph.Graph) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sched: target config: %w", err)
	}
	if err := p.Policy.Validate(); err != nil {
		return err
	}
	seen := map[graph.OpID]bool{}
	// Allocations must fit the tiles that actually survive cfg's fault mask:
	// regions are [start, count] in the live (compacted) tile enumeration, so
	// a plan computed for a healthy chip fails validation against a config
	// whose mask leaves fewer tiles than the plan occupies.
	live := cfg.LiveTiles()
	for _, seg := range p.Segments {
		if seg.TotalTiles() > live {
			return fmt.Errorf("sched: segment %d uses %d tiles, chip has %d live",
				seg.Index, seg.TotalTiles(), live)
		}
		for _, id := range seg.Ops {
			if seen[id] {
				return fmt.Errorf("sched: op %s in multiple segments", g.Op(id).Name)
			}
			seen[id] = true
		}
		for lead, op := range seg.Plans {
			if len(op.Options) == 0 {
				return fmt.Errorf("sched: entity %s has no allocation options", g.Op(lead).Name)
			}
			for _, o := range op.Options {
				if o.Tiles < 1 {
					return fmt.Errorf("sched: entity %s option with %d tiles", g.Op(lead).Name, o.Tiles)
				}
			}
			if op.Region[0] < 0 || op.Region[1] < 1 || op.Region[0]+op.Region[1] > live {
				return fmt.Errorf("sched: entity %s region [%d,%d) outside the %d live tiles",
					g.Op(lead).Name, op.Region[0], op.Region[0]+op.Region[1], live)
			}
			if op.Partner != graph.None {
				q, ok := seg.Plans[op.Partner]
				if !ok {
					return fmt.Errorf("sched: entity %s shares with %d outside segment", g.Op(lead).Name, op.Partner)
				}
				if q.Partner != lead {
					return fmt.Errorf("sched: sharing between %s and %s not symmetric",
						g.Op(lead).Name, g.Op(op.Partner).Name)
				}
				if len(op.Options) != len(q.Options) {
					return fmt.Errorf("sched: shared pair %s/%s option counts differ",
						g.Op(lead).Name, g.Op(op.Partner).Name)
				}
			}
			// Per-operator kernel storage must respect the budget the
			// hardware reserves (except the idealized dense store).
			if !p.Policy.FullKernel {
				stored := 0
				for _, o := range op.Options {
					stored += o.KernelCount()
				}
				if stored*cfg.KernelMetaBytes > cfg.KernelBudgetBytes {
					return fmt.Errorf("sched: entity %s stores %d kernels, over the %d B budget",
						g.Op(lead).Name, stored, cfg.KernelBudgetBytes)
				}
			}
		}
	}
	for _, id := range g.Topo() {
		if !seen[id] {
			return fmt.Errorf("sched: op %s not scheduled", g.Op(id).Name)
		}
	}
	return nil
}

// EvaluateEntityDensity predicts the cost of executing the entity's lead
// operator plus its fused vector operators at the actual dyn value v on
// option opt and the batch's density dyn-value: density-aware operators in
// the entity are costed at the (quantized) density, every other operator
// ignores it (density 1 is the dense cost). Results are memoized in the
// plan's eval cache, so per-batch re-evaluations of the same (entity,
// option, dyn value, density bucket) are map lookups.
func (p *Plan) EvaluateEntityDensity(cfg hw.Config, g *graph.Graph, op *OpPlan, opt *AllocOption, v int, density float64) (costmodel.Eval, error) {
	c := p.evalCache(cfg)
	lead := g.Op(op.Lead)
	var total costmodel.Eval
	if lead.Kind.IsCompute() && lead.Space[0] > 0 {
		k, err := opt.kernel(p, g, cfg, lead, v)
		if err != nil {
			return costmodel.Eval{}, err
		}
		ev, err := c.EvaluateDensity(lead, k.Blocking, k.CompiledUnits, v, opt.Tiles, p.Policy.RuntimeFitting, density)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	} else if lead.Kind.IsCompute() {
		ev, err := vectorEval(c, p.Policy, lead, opt.Tiles, v, density)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	}
	for _, fid := range op.Fused {
		ev, err := vectorEval(c, p.Policy, g.Op(fid), opt.Tiles, v, density)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total.Cycles += ev.Cycles
		total.MACs += ev.MACs
		total.SRAMBytes += ev.SRAMBytes
		total.OutBytes = ev.OutBytes // the fused tail defines the output
	}
	return total, nil
}

// vectorEval costs a vector operator with the trivial unit blocking (vector
// ops have no compiled shape to mismatch; without runtime fitting they still
// pay the worst case like everything else on the static baseline).
func vectorEval(c *costmodel.Cache, pol Policy, op *graph.Op, tiles, v int, density float64) (costmodel.Eval, error) {
	blk := costmodel.Blocking{SplitN: 1, SplitM: 1, NBlk: 1, WeightResident: true}
	return c.EvaluateDensity(op, blk, op.MaxUnits, v, tiles, pol.RuntimeFitting, density)
}
