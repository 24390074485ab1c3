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
// A solved or decoded plan is immutable, so any number of machines may run
// one plan concurrently.
type Plan struct {
	// Policy is the scheduling policy the plan was solved under; its bits
	// also select the machine's runtime behaviour (e.g. runtime fitting).
	Policy Policy
	// Segments lists the plan's segments in execution order.
	Segments []*Segment

	// comp is the compile memo of the plan's graph: the one it was solved
	// through, or a fresh one bound by DecodePlan. Full-kernel options
	// compile their kernels on demand through it.
	comp *Compiler
}

// CacheStats returns (0, 0). Plans keep no eval memo: every entity is
// costed straight from the cost model. The method stays only because the
// separate perfbench module reads it; it goes with the next perfbench change.
func (p *Plan) CacheStats() (hits, misses int64) { return 0, 0 }

// Segment is one resident group of consecutive operators (Section II-B).
type Segment struct {
	// Index is the segment's position in Plan.Segments.
	Index int
	// Ops lists every operator of the segment in topological order,
	// including control operators (switch/merge/sink) and fused vector ops.
	Ops []graph.OpID
	// Entities lists the plan of every allocation entity in topological
	// (Ops) order. An operator's entity is the one whose Lead or Fused
	// names it; control operators belong to none.
	Entities []*OpPlan
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
	// set holds the sampled kernels (nil under FullKernel, where every dyn
	// value's kernel is compiled on demand through the plan's compiler).
	set *kernels.Set
}

// kernel returns the kernel the dispatcher would select for the actual dyn
// value v. Under the full-kernel policy it is the compiler's kernel for v on
// cfg, chosen at cfg's HBM rate.
func (o *AllocOption) kernel(p *Plan, cfg hw.Config, op *graph.Op, v int) (*kernels.Kernel, error) {
	if o.set != nil {
		return o.set.Select(v)
	}
	return p.comp.compile(cfg, op, max(v, 1), o.Tiles)
}

// KernelCount reports how many kernels the option stores on-chip (0 under
// the full-kernel ideal, whose store the paper treats as unbounded).
func (o *AllocOption) KernelCount() int {
	if o.set == nil {
		return 0
	}
	return o.set.Len()
}

// StoredValues returns the stored kernel values (nil under the full-kernel
// ideal).
func (o *AllocOption) StoredValues() []int {
	if o.set == nil {
		return nil
	}
	return o.set.Values()
}

// Entity returns the plan of the entity leading with id.
func (s *Segment) Entity(id graph.OpID) (*OpPlan, bool) {
	for _, p := range s.Entities {
		if p.Lead == id {
			return p, true
		}
	}
	return nil, false
}

// TotalTiles returns the tiles the segment's base allocation occupies.
func (s *Segment) TotalTiles() int {
	n := 0
	for _, p := range s.Entities {
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
	seen := make([]bool, len(g.Ops))
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
		for _, op := range seg.Entities {
			lead := op.Lead
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
				q, ok := seg.Entity(op.Partner)
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
			// hardware reserves (except the full-kernel ideal's).
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
// ignores it (density 1 is the dense cost). Every call evaluates: the cost
// model is pure and takes about as long as a map lookup of its result.
func (p *Plan) EvaluateEntityDensity(cfg hw.Config, g *graph.Graph, op *OpPlan, opt *AllocOption, v int, density float64) (costmodel.Eval, error) {
	lead := g.Op(op.Lead)
	var total costmodel.Eval
	if lead.Kind.IsCompute() && lead.Space[0] > 0 {
		k, err := opt.kernel(p, cfg, lead, v)
		if err != nil {
			return costmodel.Eval{}, err
		}
		ev, err := costmodel.EvaluateDensity(cfg, lead, k.Blocking, k.CompiledUnits, v, opt.Tiles, p.Policy.RuntimeFitting, density)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	} else if lead.Kind.IsCompute() {
		ev, err := vectorEval(cfg, p.Policy, lead, opt.Tiles, v, density)
		if err != nil {
			return costmodel.Eval{}, err
		}
		total = ev
	}
	for _, fid := range op.Fused {
		ev, err := vectorEval(cfg, p.Policy, g.Op(fid), opt.Tiles, v, density)
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
func vectorEval(cfg hw.Config, pol Policy, op *graph.Op, tiles, v int, density float64) (costmodel.Eval, error) {
	blk := costmodel.Blocking{SplitN: 1, SplitM: 1, NBlk: 1, WeightResident: true}
	return costmodel.EvaluateDensity(cfg, op, blk, op.MaxUnits, v, tiles, pol.RuntimeFitting, density)
}
