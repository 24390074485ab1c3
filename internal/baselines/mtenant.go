// Package baselines models the comparison systems of the paper's evaluation
// that are not variants of the Adyna machine: the Planaria-style multi-tenant
// accelerator (M-tenant) and the A100-class GPU. (The M-tile baseline and the
// full-kernel ideal reuse the Adyna machine with the corresponding policy.)
package baselines

import (
	"math"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/workload"
)

// hostRouteCycles is the host-side latency of resolving one switch or merge
// operator per batch on M-tenant: the routing mask travels to the CPU, the
// scatter/gather lists are computed and the tenant kernels are re-launched.
const hostRouteCycles = 12_000 // 12 us at 1 GHz

// MTenant simulates the Planaria-style multi-tenant accelerator (Section
// VIII, Baselines): the same compute and memory resources as Adyna, flexible
// runtime repartitioning across concurrently running operators (F2), and
// optimistically pre-compiled kernels for every resource amount — but no
// inter-operator pipelining (F3: every activation crosses HBM) and switch /
// merge handled by the host CPU (no F4/F5).
func MTenant(cfg hw.Config, w *models.Workload, trace []workload.Batch) (metrics.RunResult, error) {
	g := w.Graph
	res := metrics.RunResult{Design: "M-tenant", Model: w.Name}
	waves := levelize(g)
	weightsFit := totalWeights(g) <= int64(0.85*float64(cfg.TotalScratchpadBytes()))
	bw := cfg.HBMBytesPerCycle()

	blocks := blockings{}
	var totalCycles, macs, sram, hbm int64
	if weightsFit {
		hbm += totalWeights(g) // loaded once
	}
	for _, b := range trace {
		units, err := g.AssignUnits(b.Units, b.Routing)
		if err != nil {
			return res, err
		}
		for _, wave := range waves {
			// Repartition the tiles across this wave's operators in
			// proportion to their actual loads.
			tiles := partitionTiles(cfg, g, wave, units)
			var waveBytes int64
			var waveCompute int64
			for _, id := range wave {
				op := g.Op(id)
				v := units[id]
				if v == 0 {
					continue
				}
				ev, err := blocks.tenantOpCost(cfg, op, v, tiles[id])
				if err != nil {
					return res, err
				}
				if ev.Cycles > waveCompute {
					waveCompute = ev.Cycles
				}
				macs += ev.MACs
				sram += ev.SRAMBytes
				// No pipelining: inputs and outputs stage through HBM.
				opBytes := ev.InBytes + ev.OutBytes
				if !weightsFit {
					opBytes += op.WeightBytes
				}
				waveBytes += opBytes
			}
			// Without inter-operator pipelining a wave's inputs are produced
			// by the previous wave's HBM write-back, so the staging traffic
			// serializes with compute instead of hiding behind it — exactly
			// the memory blocking the paper observes on M-tenant.
			memCycles := int64(math.Ceil(float64(waveBytes) / bw))
			totalCycles += waveCompute + memCycles
			hbm += waveBytes
		}
		routeCycles, routeBytes := hostRoutingCost(g, units, bw)
		totalCycles += routeCycles
		hbm += routeBytes
		for _, id := range g.ComputeOps() {
			res.UsefulMACs += g.Op(id).MACsPerUnit * int64(units[id])
		}
	}
	res.Batches = len(trace)
	res.Cycles = totalCycles
	res.MACs = macs
	res.SRAMBytes = sram
	res.HBMBytes = hbm
	res.NoCByteHops = 0 // tenants do not forward data on-chip
	if totalCycles > 0 {
		res.PEUtil = float64(macs) / (float64(cfg.TotalPEs()) * float64(totalCycles))
		res.HBMUtil = float64(hbm) / (bw * float64(totalCycles))
	}
	return res, nil
}

// hostRoutingCost prices one batch's host-side switch and merge resolution:
// the host latency per control operator, plus the gather/scatter kernels that
// physically reshuffle the routed tensor through memory (an extra read+write
// pass the on-chip dynamic routing of Adyna avoids entirely). Control
// operators that see no units this batch — switches and merges inside a
// branch the routing gated off entirely — have nothing to resolve: the host
// never launches them, so they charge neither latency nor traffic.
func hostRoutingCost(g *graph.Graph, units map[graph.OpID]int, bw float64) (cycles, bytes int64) {
	for _, op := range g.Ops {
		if op.Kind != graph.KindSwitch && op.Kind != graph.KindMerge {
			continue
		}
		if units[op.ID] == 0 {
			continue
		}
		moved := 2 * op.InBytesPerUnit * int64(units[op.ID])
		cycles += hostRouteCycles + int64(math.Ceil(float64(moved)/bw))
		bytes += moved
	}
	return cycles, bytes
}

// blockings memoizes M-tenant's pre-compiled kernels within one run: the
// worst-case blocking of an operator on a tile count depends on nothing
// else, so each (operator, tiles) pair is optimized once.
type blockings map[blockingKey]costmodel.Blocking

type blockingKey struct {
	op    graph.OpID
	tiles int
}

// tenantOpCost evaluates one operator on M-tenant. Kernels are optimistically
// pre-compiled for every resource amount (the paper's concession), and the
// host knows each tenant's actual sub-batch, so the kernel's batch loop bound
// shrinks to the actual value — but M-tenant lacks multi-kernel selection
// (Table II, F4 = no): the single kernel per resource amount is blocked for
// the worst-case dyn size, so only part of the gap is recovered. Inactive
// tenants (v = 0) are simply not launched (fast runtime adjustment, F2).
func (bs blockings) tenantOpCost(cfg hw.Config, op *graph.Op, v, tiles int) (costmodel.Eval, error) {
	if tiles < 1 {
		tiles = 1
	}
	if op.Space[0] == 0 {
		blk := costmodel.Blocking{SplitN: 1, SplitM: 1, NBlk: 1, WeightResident: true}
		return costmodel.Evaluate(cfg, op, blk, op.MaxUnits, v, tiles, true)
	}
	k := blockingKey{op.ID, tiles}
	blk, ok := bs[k]
	if !ok {
		var err error
		if blk, _, err = costmodel.Optimize(cfg, op, op.MaxUnits, tiles); err != nil {
			return costmodel.Eval{}, err
		}
		bs[k] = blk
	}
	return costmodel.Evaluate(cfg, op, blk, op.MaxUnits, v, tiles, true)
}

// partitionTiles splits the chip across a wave's operators proportionally to
// the work their kernels will actually execute (fast runtime
// repartitioning). Because the single worst-case kernel recovers only part
// of the dyn gap, the effective load of a lightly-used tenant stays well
// above its useful load, and the partitioner must account for that or the
// rare tenant becomes the wave's straggler.
func partitionTiles(cfg hw.Config, g *graph.Graph, wave []graph.OpID, units map[graph.OpID]int) map[graph.OpID]int {
	loads := map[graph.OpID]float64{}
	var sum float64
	for _, id := range wave {
		op := g.Op(id)
		effUnits := float64(units[id]) + costmodel.FittingGapShare*float64(op.MaxUnits-units[id])
		l := float64(op.MACsPerUnit) * effUnits
		if l <= 0 {
			l = 1
		}
		loads[id] = l
		sum += l
	}
	out := map[graph.OpID]int{}
	total := cfg.Tiles()
	if len(wave) >= total {
		// More concurrent tenants than tiles: the first `total` operators in
		// wave order get a tile each and the rest time-share (a zero entry —
		// tenantOpCost prices it at a single tile's rate, the serialized
		// stand-in). Flooring everyone to 1 here would hand out more tiles
		// than the chip has.
		for i, id := range wave {
			if i < total {
				out[id] = 1
			} else {
				out[id] = 0
			}
		}
		return out
	}
	assigned := 0
	for _, id := range wave {
		t := int(float64(total) * loads[id] / sum)
		if t < 1 {
			t = 1
		}
		out[id] = t
		assigned += t
	}
	// Trim overflow from the largest allocations. Because every operator was
	// floored to one tile and len(wave) <= total, some allocation above one
	// tile always remains while assigned > total, so the loop restores the
	// conservation invariant sum(out) <= total before returning.
	for assigned > total {
		big := wave[0]
		for _, id := range wave {
			if out[id] > out[big] {
				big = id
			}
		}
		if out[big] <= 1 {
			break // unreachable: len(wave) <= total (defensive)
		}
		out[big]--
		assigned--
	}
	return out
}

// levelize groups compute operators into topological waves: all operators in
// one wave have every producer in earlier waves and run concurrently as
// co-located tenants.
func levelize(g *graph.Graph) [][]graph.OpID {
	depth := map[graph.OpID]int{}
	maxDepth := 0
	for _, id := range g.Topo() {
		op := g.Op(id)
		d := 0
		for _, in := range op.Inputs {
			if depth[in]+1 > d {
				d = depth[in] + 1
			}
		}
		depth[id] = d
		if op.Kind.IsCompute() && d > maxDepth {
			maxDepth = d
		}
	}
	// Compact compute ops by depth.
	byDepth := map[int][]graph.OpID{}
	var ds []int
	for _, id := range g.Topo() {
		if !g.Op(id).Kind.IsCompute() {
			continue
		}
		d := depth[id]
		if len(byDepth[d]) == 0 {
			ds = append(ds, d)
		}
		byDepth[d] = append(byDepth[d], id)
	}
	waves := make([][]graph.OpID, 0, len(ds))
	for _, d := range ds {
		waves = append(waves, byDepth[d])
	}
	return waves
}

func totalWeights(g *graph.Graph) int64 {
	var w int64
	for _, op := range g.Ops {
		w += op.WeightBytes
	}
	return w
}
