package mtserve

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// The cross-tenant controller. Every CheckEvery fired batches (or
// immediately, when a fault event or a drained tenant forces it) the
// controller evaluates two triggers:
//
//   - drift: some tenant's routing profile diverged past DriftThreshold from
//     the profile its current plan was scheduled from, so its partition is
//     running a stale plan;
//   - starvation: the spread of queue pressure (queued samples over queue
//     capacity) across live tenants exceeds StarvePressure — one tenant is
//     drowning while another idles.
//
// On trigger it re-solves the tile split from measured demand — busy
// fraction x current tiles x (1 + queue pressure), a tiles-equivalent
// utilization estimate — by iteratively moving single tiles from the
// least-loaded partition to the most-loaded one while the bottleneck
// improves (the schedule-improvement loop of D-HaX-CoNN, applied to tiles).
// Changed tenants are drained to a common barrier time and their sessions
// move onto the new partition configs (serve.Server.Repartition), re-planning
// and paying the drain-and-reload reconfiguration cost; unchanged tenants
// keep running.

// maybeRepartition is the controller hook, called after every fired batch in
// repartition mode.
func (s *Server) maybeRepartition() error {
	if !s.pending {
		if s.fired%s.cfg.CheckEvery != 0 {
			return nil
		}
		if s.sinceRepart < s.cfg.CooldownBatches {
			return nil
		}
	}
	maxDiv, spread := s.triggerStats()
	trigger := s.pending || maxDiv >= s.cfg.DriftThreshold || spread >= s.cfg.StarvePressure
	if s.ctlRec.Enabled() {
		s.ctlRec.Instant(s.ctlTrack, "controller", "check", s.barrierTime(),
			telemetry.F("divergence", maxDiv), telemetry.F("pressure_spread", spread),
			telemetry.B("forced", s.pending), telemetry.B("triggered", trigger))
	}
	if !trigger {
		return nil
	}
	s.pending = false
	return s.repartition(maxDiv >= s.cfg.DriftThreshold)
}

// triggerStats returns the largest per-tenant profile divergence and the
// queue-pressure spread across live tenants.
func (s *Server) triggerStats() (maxDiv, spread float64) {
	minP, maxP := 1.0, 0.0
	live := 0
	for _, ts := range s.tens {
		if ts.drained {
			continue
		}
		live++
		if d := ts.srv.Divergence(); d > maxDiv {
			maxDiv = d
		}
		p := float64(ts.srv.AdmittedSamples()) / float64(s.cfg.QueueCapSamples)
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	if live >= 2 && maxP > minP {
		spread = maxP - minP
	}
	return maxDiv, spread
}

// barrierTime is the latest live tenant clock — the instant every machine is
// drained to before tiles move.
func (s *Server) barrierTime() int64 {
	var t int64
	for _, ts := range s.tens {
		if c := ts.clock(); c > t {
			t = c
		}
	}
	return t
}

// repartition re-solves the tile split from measured demand and applies it:
// machines drain to a common barrier, changed tenants are re-planned over
// their new partitions (paying the reconfiguration charge), and drift
// references rebase. When the split is unchanged but drift triggered, the
// drifted tenants re-plan in place over their existing tiles.
func (s *Server) repartition(driftTriggered bool) error {
	tmax := s.barrierTime()
	cap := faults.Healthy()
	if s.health != nil {
		cap, _ = s.health.At(tmax)
	}
	gFailed := s.baseFailed.Or(cap.Failed)
	live := s.total - gFailed.Count()

	liveTenants := 0
	for _, ts := range s.tens {
		if !ts.drained {
			liveTenants++
		}
	}
	if liveTenants == 0 {
		return nil
	}
	if liveTenants > live {
		return fmt.Errorf("mtserve: %d live tenants but only %d surviving tiles", liveTenants, live)
	}

	counts := s.improveCounts(live)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != live {
		return fmt.Errorf("mtserve: tile split covers %d of %d surviving tiles", sum, live)
	}
	assign := assignPartitions(counts, s.total, gFailed)

	// Decide who must re-plan: every tenant whose tile set moved, plus — on a
	// drift trigger — tenants past the threshold even if their tiles held.
	var replan []*tenantState
	moved := false
	for i, ts := range s.tens {
		if ts.drained {
			continue
		}
		if assign[i] != ts.owned {
			replan = append(replan, ts)
			moved = true
		} else if driftTriggered && ts.srv.Divergence() >= s.cfg.DriftThreshold {
			replan = append(replan, ts)
		}
	}
	s.sinceRepart = 0
	if len(replan) == 0 {
		return nil
	}
	// Barrier: moving tiles between partitions requires every machine to
	// have drained its pipeline up to a common instant.
	if moved {
		for _, ts := range s.tens {
			if !ts.drained {
				ts.srv.IdleTo(tmax)
			}
		}
	}
	for i, ts := range s.tens {
		if ts.drained {
			continue
		}
		isReplan := false
		for _, r := range replan {
			if r == ts {
				isReplan = true
				break
			}
		}
		if !isReplan {
			continue
		}
		if err := s.applyPartition(ts, assign[i], counts[i], live); err != nil {
			return fmt.Errorf("mtserve: re-partitioning tenant %s: %w", ts.ten.Name, err)
		}
	}
	if moved {
		s.repartitions++
	}
	if s.ctlRec.Enabled() {
		args := []telemetry.Arg{
			telemetry.B("moved", moved),
			telemetry.I("replanned", int64(len(replan))),
		}
		for i, ts := range s.tens {
			args = append(args, telemetry.I("tiles_"+ts.ten.Name, int64(counts[i])))
		}
		s.ctlRec.Instant(s.ctlTrack, "controller", "repartition", tmax, args...)
	}
	return nil
}

// applyPartition moves a tenant onto its new tile set and HBM share: its
// session re-plans for the partition config (paying the reload charge), and
// the demand window restarts when the tile set actually changed — a replan in
// place keeps the measurement running so the controller's utilization
// estimate spans more than one cooldown interval.
func (s *Server) applyPartition(ts *tenantState, owned hw.TileMask, count, live int) error {
	ts.hw = s.partitionHW(owned, count, live)
	if err := ts.srv.Repartition(ts.hw); err != nil {
		return err
	}
	if owned != ts.owned {
		ts.winStart = ts.clock()
		ts.winBusy = ts.srv.BusyCycles()
	}
	ts.owned = owned
	ts.tiles = count
	return nil
}

// improveCounts starts from the current split (normalized to the surviving
// tile count, with drained tenants releasing their tiles) and iteratively
// moves single tiles from the least-loaded partition to the most-loaded one
// while the bottleneck load-per-tile improves.
func (s *Server) improveCounts(live int) []int {
	n := len(s.tens)
	demand := make([]float64, n)
	eligible := make([]bool, n)
	cur := make([]float64, n)
	for i, ts := range s.tens {
		if ts.drained {
			continue
		}
		eligible[i] = true
		cur[i] = float64(ts.tiles)
		demand[i] = s.tenantDemand(ts)
	}
	// Normalize the current split onto the surviving tiles (fault losses and
	// drained tenants change the pool) before improving it. Each tenant's
	// per-event floor keeps shrinkage gradual: a donor loses at most a third
	// of its partition per repartition, so its utilization is re-measured at
	// the new size before it donates further (service scaling is convex at
	// small tile counts, and the linear demand/(tiles-1) projection grows
	// increasingly optimistic the farther a single event moves).
	counts := apportion(cur, eligible, live, s.cfg.MinTiles)
	floor := make([]int, n)
	for i, ts := range s.tens {
		if !eligible[i] {
			continue
		}
		floor[i] = s.cfg.MinTiles
		if f := 2 * ts.tiles / 3; f > floor[i] {
			floor[i] = f
		}
		if floor[i] > counts[i] {
			floor[i] = counts[i]
		}
	}
	lpt := func(i int) float64 { return demand[i] / float64(counts[i]) }
	for moves := 0; moves < 2*live; moves++ {
		hi, lo := -1, -1
		for i := range s.tens {
			if !eligible[i] {
				continue
			}
			if hi < 0 || lpt(i) > lpt(hi) {
				hi = i
			}
			if counts[i] > floor[i] && (lo < 0 || lpt(i) < lpt(lo)) {
				lo = i
			}
		}
		if hi < 0 || lo < 0 || hi == lo {
			break
		}
		after := demand[lo] / float64(counts[lo]-1)
		// The move helps only if the donor's load after giving up a tile
		// stays below the receiver's current bottleneck — and below the
		// headroom ceiling, so a lightly loaded tenant is never donated into
		// overload itself (tile scaling is sublinear, so its measured
		// utilization understates what fewer tiles would cost it).
		if after >= lpt(hi) || after >= donorCeiling {
			break
		}
		counts[hi]++
		counts[lo]--
	}
	return counts
}

// donorCeiling is the projected load-per-tile past which a partition stops
// donating tiles, leaving slack for the sublinear cost of running the same
// work on fewer tiles.
const donorCeiling = 0.8

// tenantDemand estimates a tenant's tile-equivalent demand: the fraction of
// its clock spent executing since the last partition change, scaled by its
// current tiles, folded into an exponential moving average across controller
// events, then inflated by instantaneous queue backlog so a starving tenant
// bids above its utilization ceiling. Windows shorter than minDemandWindow
// are skipped (a window holding a single batch reads util near 0 or near 1
// depending on where the check lands relative to the fire).
func (s *Server) tenantDemand(ts *tenantState) float64 {
	elapsed := ts.clock() - ts.winStart
	if elapsed >= minDemandWindow {
		util := float64(ts.srv.BusyCycles()-ts.winBusy) / float64(elapsed)
		if util > 1 {
			util = 1
		}
		ts.demandEst = 0.5*ts.demandEst + 0.5*util*float64(ts.tiles)
	}
	pressure := float64(ts.srv.AdmittedSamples()) / float64(s.cfg.QueueCapSamples)
	return ts.demandEst * (1 + pressure)
}

// minDemandWindow is the shortest measurement window (in cycles) the
// controller trusts for a utilization reading.
const minDemandWindow = 1_000_000

// apportion splits total tiles across eligible tenants proportionally to
// weights with a per-tenant floor, by largest remainder (ties to lower
// index). Zero or negative weight sums fall back to an equal split.
func apportion(weights []float64, eligible []bool, total, floor int) []int {
	n := len(weights)
	counts := make([]int, n)
	live := 0
	var sum float64
	for i := range weights {
		if !eligible[i] {
			continue
		}
		live++
		if weights[i] > 0 {
			sum += weights[i]
		}
	}
	if live == 0 {
		return counts
	}
	if floor*live > total {
		floor = total / live
	}
	if floor < 1 {
		floor = 1
	}
	rest := total - floor*live
	type rem struct {
		idx  int
		frac float64
	}
	var rems []rem
	given := 0
	for i := range weights {
		if !eligible[i] {
			continue
		}
		counts[i] = floor
		w := weights[i]
		if w < 0 {
			w = 0
		}
		var share float64
		if sum > 0 {
			share = w / sum * float64(rest)
		} else {
			share = float64(rest) / float64(live)
		}
		whole := int(share)
		counts[i] += whole
		given += whole
		rems = append(rems, rem{i, share - float64(whole)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < rest-given; k++ {
		counts[rems[k%len(rems)].idx]++
	}
	return counts
}

// assignPartitions lays the per-tenant tile counts out over the physical
// grid in tenant order, skipping globally failed tiles, and returns each
// tenant's owned mask. Partitions are disjoint by construction and cover
// exactly sum(counts) live tiles.
func assignPartitions(counts []int, total int, failed hw.TileMask) []hw.TileMask {
	out := make([]hw.TileMask, len(counts))
	t := 0
	for i, c := range counts {
		var tiles []int
		for len(tiles) < c && t < total {
			if !failed.Failed(t) {
				tiles = append(tiles, t)
			}
			t++
		}
		out[i] = hw.NewTileMask(tiles...)
	}
	return out
}
