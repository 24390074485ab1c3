// Package mtserve is the multi-tenant serving front-end: N models share one
// accelerator chip, each with its own SLO and arrival stream, under one of
// three sharing disciplines. Static partitioning splits the tile grid once
// (by an expected-work prior) and never moves it. Naive time-slicing gives
// every tenant the full chip but context-switches the kernel store — a
// pipeline drain plus reload through HBM — whenever the served tenant
// changes. Drift-aware re-partitioning starts from the static split and
// re-draws partition boundaries online: when one tenant's routing profile
// drifts or its queue pressure starves another, a cross-tenant controller
// moves tiles from the coldest partition to the hottest (an iterative
// schedule-improvement loop in the D-HaX-CoNN style), re-plans the affected
// tenants over their new partitions, and charges each the drain-and-reload
// reconfiguration cost.
//
// Each tenant owns a disjoint hw.TileMask partition and a proportional HBM
// bandwidth share, brought up through core.Bringup exactly like a
// single-tenant server; fault schedules (internal/faults) apply per tenant on
// top of the partition mask, and every tenant records onto its own telemetry
// tracks ("tenant/<name>"). The whole simulation is single-threaded virtual
// time: identical configurations produce identical per-request outcome logs
// at any GOMAXPROCS.
package mtserve

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/plancache"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Mode selects the chip-sharing discipline.
type Mode int

// The sharing disciplines the compare table measures.
const (
	// ModeStatic splits the tiles once at bringup and never moves them.
	ModeStatic Mode = iota
	// ModeTimeSlice serves every tenant on the full chip, paying a kernel
	// store reload (pipeline drain + HBM traffic) on every tenant switch.
	ModeTimeSlice
	// ModeRepartition starts from the static split and re-draws partition
	// boundaries when drift or queue starvation is detected.
	ModeRepartition
)

// String returns the mode name used by the -mt-mode flag.
func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeTimeSlice:
		return "timeslice"
	case ModeRepartition:
		return "repartition"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode resolves a CLI mode argument.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "static":
		return ModeStatic, nil
	case "timeslice", "time-slice", "slice":
		return ModeTimeSlice, nil
	case "repartition", "adaptive", "repart":
		return ModeRepartition, nil
	}
	return 0, fmt.Errorf("mtserve: unknown mode %q (want static, timeslice, or repartition)", s)
}

// Config parameterizes a multi-tenant Server.
type Config struct {
	// Tenants lists the co-resident models; at least one is required.
	Tenants []Tenant
	// Design is the machine design every tenant runs (default Adyna); RC
	// carries the shared chip configuration, warmup length, base seed and
	// optional telemetry trace.
	Design core.Design
	RC     core.RunConfig
	// Mode selects the sharing discipline (default ModeRepartition).
	Mode Mode

	// MaxBatch caps a formed batch in samples and sizes each tenant's graph
	// (default RC.Batch).
	MaxBatch int
	// QueueCapSamples bounds each tenant's admission queue; arrivals beyond
	// it are shed (default 8x MaxBatch).
	QueueCapSamples int
	// MinTiles is the smallest partition the controller will shrink a live
	// tenant to (default 2).
	MinTiles int

	// Faults optionally injects a chip-level hardware fault schedule. Each
	// tenant folds the global capability into its own partition mask; in
	// repartition mode a capability change also forces a controller pass.
	Faults *faults.Schedule

	// DriftThreshold is the per-tenant profile divergence that triggers a
	// controller pass (default 0.06); CheckEvery its cadence in fired batches
	// (default 8); CooldownBatches the minimum fired batches between
	// re-partitions (default core.ExecWindow).
	DriftThreshold  float64
	CheckEvery      int
	CooldownBatches int

	// PlanCache gives every tenant a plan-variant cache (tenants of one
	// model share a keyer): repartition and fault re-plans become lookups
	// when a tenant returns to a previously-seen partition and profile.
	PlanCache bool
	// PlanCacheNearest allows approximate hits within PlanCacheMaxDist
	// (default 0.04) of a cached profile.
	PlanCacheNearest bool
	// PlanCacheMaxDist bounds a nearest hit (default 0.04).
	PlanCacheMaxDist float64
	// PlanCacheAOT precomputes each tenant's cache at bring-up (profile
	// lattice plus the fault schedule's windows over the initial partition).
	PlanCacheAOT bool
	// HostReschedCycles charges the host-side solve latency of a re-plan
	// into the tenant's virtual time on every cache miss (or always, with
	// the cache off). Zero keeps re-plans free, as before.
	HostReschedCycles int64
	// StarvePressure is the queue-pressure spread — max minus min of
	// queued/capacity across live tenants — that marks one tenant as
	// starving another (default 0.5).
	StarvePressure float64
}

func (c *Config) defaults() {
	if c.Design == "" {
		c.Design = core.DesignAdyna
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = c.RC.Batch
	}
	if c.QueueCapSamples <= 0 {
		c.QueueCapSamples = 8 * c.MaxBatch
	}
	if c.MinTiles <= 0 {
		c.MinTiles = 2
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.06
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 8
	}
	if c.CooldownBatches <= 0 {
		c.CooldownBatches = core.ExecWindow
	}
	if c.StarvePressure <= 0 {
		c.StarvePressure = 0.5
	}
	for i := range c.Tenants {
		if c.Tenants[i].Requests <= 0 {
			c.Tenants[i].Requests = 400
		}
		if c.Tenants[i].MeanGapCycles <= 0 {
			c.Tenants[i].MeanGapCycles = 50_000
		}
		if c.Tenants[i].MaxWaitCycles <= 0 {
			if c.Tenants[i].SLOCycles > 0 {
				c.Tenants[i].MaxWaitCycles = c.Tenants[i].SLOCycles / 4
			} else {
				c.Tenants[i].MaxWaitCycles = 100_000
			}
		}
	}
}

// TenantReport is one tenant's slice of a serving run.
type TenantReport struct {
	// Name, Model and Priority echo the tenant spec.
	Name     string
	Model    string
	Priority int
	// Tiles is the tenant's partition size when the stream ended (the full
	// chip under time-slicing).
	Tiles int
	// Requests counts every admitted-or-shed request; Served, Missed and
	// Shed split it by outcome.
	Requests, Served, Missed, Shed int
	// Batches counts this tenant's executed batches; Reschedules its plan
	// swaps (partition moves and in-place drift re-plans alike).
	Batches, Reschedules int
	// FaultEvents counts capability changes this tenant observed.
	FaultEvents int
	// PlanCacheExact, PlanCacheNearest and PlanCacheMisses split this
	// tenant's re-plans by plan-cache outcome (all zero with the cache off).
	PlanCacheExact, PlanCacheNearest, PlanCacheMisses int
	// ReconfigCycles is this tenant's machine time spent in plan swaps and
	// time-slice context switches.
	ReconfigCycles int64
	// HostSolveCycles is the virtual time this tenant spent stalled on
	// host-side solves (HostReschedCycles per cache miss).
	HostSolveCycles int64
	// FinalCycles is the tenant's clock when its stream drained.
	FinalCycles int64
	// Latency summarizes completion latency over executed requests.
	Latency metrics.Summary
	// Outcomes is the per-request log, in terminal order.
	Outcomes []serve.RequestResult
}

// Report is the outcome of one multi-tenant Serve call.
type Report struct {
	// Mode and Design identify the sharing discipline and machine design.
	Mode   Mode
	Design core.Design
	// Tenants holds the per-tenant reports, in spec order.
	Tenants []TenantReport
	// Requests, Served, Missed, Shed and Batches sum the per-tenant
	// counters.
	Requests, Served, Missed, Shed, Batches int
	// Repartitions counts controller passes that moved tiles between
	// tenants; Reschedules sums every per-tenant plan swap.
	Repartitions, Reschedules int
	// FaultEvents sums the per-tenant capability-change observations.
	FaultEvents int
	// PlanCacheHits and PlanCacheMisses sum the per-tenant plan-cache
	// outcomes (exact and nearest hits pooled).
	PlanCacheHits, PlanCacheMisses int
	// ReconfigCycles sums the per-tenant reconfiguration charges.
	ReconfigCycles int64
	// HostSolveCycles sums the per-tenant host-solve stalls.
	HostSolveCycles int64
	// Aggregate pools every tenant's executed-request latencies into one
	// distribution (metrics.SummarizeAll), so a starved tenant's tail stays
	// visible in the headline percentiles.
	Aggregate metrics.Summary
	// FinalCycles is the latest tenant clock when all streams drained.
	FinalCycles int64
}

// String renders the per-tenant table plus the aggregate footer.
func (r *Report) String() string {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Multi-tenant serving (%s, %s)", r.Mode, r.Design),
		Columns: []string{"Tenant", "Model", "Tiles", "Req", "Served", "Missed", "Shed", "p50", "p99"},
	}
	for _, tr := range r.Tenants {
		t.AddRow(tr.Name, tr.Model, fmt.Sprint(tr.Tiles), fmt.Sprint(tr.Requests),
			fmt.Sprint(tr.Served), fmt.Sprint(tr.Missed), fmt.Sprint(tr.Shed),
			metrics.F(tr.Latency.P50, 0), metrics.F(tr.Latency.P99, 0))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "aggregate: p50=%s p99=%s mean=%s  repartitions=%d reschedules=%d reconfig=%d",
		metrics.F(r.Aggregate.P50, 0), metrics.F(r.Aggregate.P99, 0), metrics.F(r.Aggregate.Mean, 0),
		r.Repartitions, r.Reschedules, r.ReconfigCycles)
	if r.FaultEvents > 0 {
		fmt.Fprintf(&b, " fault-events=%d", r.FaultEvents)
	}
	if r.PlanCacheHits+r.PlanCacheMisses > 0 {
		fmt.Fprintf(&b, " plan-cache=%d/%d", r.PlanCacheHits, r.PlanCacheHits+r.PlanCacheMisses)
	}
	if r.HostSolveCycles > 0 {
		fmt.Fprintf(&b, " host-solve=%d", r.HostSolveCycles)
	}
	fmt.Fprintf(&b, " final-clock=%d\n", r.FinalCycles)
	return b.String()
}

// tenantState is one tenant's live serving state: its brought-up machine,
// partition, admission queue, drift detector, fault tracker and counters.
type tenantState struct {
	idx   int
	ten   Tenant
	setup *core.Setup
	det   *serve.DriftDetector
	// health tracks the global fault schedule on this tenant's clock
	// (faults.State.At is a pure function of time, so per-tenant instances
	// stay consistent).
	health *faults.State

	src  serve.Source
	next serve.Request
	more bool

	// batcher holds the tenant's admission queue and applies serve's
	// batching policy to it under the tenant's SLO and queue-wait deadline.
	batcher *serve.Batcher
	drained bool

	// owned is the tenant's tile partition; ownFailed its complement (the
	// mask baked into the tenant's machine). Both empty under time-slicing:
	// the tenant sees the full chip. share is the HBM bandwidth fraction.
	owned     hw.TileMask
	ownFailed hw.TileMask
	tiles     int
	share     float64

	// Demand window: busy cycles and executed samples since the last
	// partition change, on this tenant's clock. The controller turns them
	// into a tiles-equivalent demand estimate, smoothed across controller
	// events in demandEst (a raw window is far too noisy: right after a
	// batch fires, busy/elapsed reads near 1 however idle the tenant is).
	winStart   int64
	winBusy    int64
	winSamples int
	demandEst  float64

	// pcache is the tenant's plan-variant cache (nil with Config.PlanCache
	// off); tenants of the same model share the keyer underneath.
	pcache *plancache.Cache

	rep        TenantReport
	rec        *telemetry.Recorder
	faultTrack telemetry.TrackID
}

func (ts *tenantState) clock() int64 { return int64(ts.setup.M.Now()) }

func (ts *tenantState) record(res serve.RequestResult) {
	ts.rep.Requests++
	switch res.Outcome {
	case serve.Served:
		ts.rep.Served++
	case serve.DeadlineMissed:
		ts.rep.Missed++
	case serve.Shed:
		ts.rep.Shed++
	}
	ts.rep.Outcomes = append(ts.rep.Outcomes, res)
}

// Server is the multi-tenant front-end: one brought-up machine per tenant
// over disjoint partitions of the same chip, plus the cross-tenant
// controller. Not safe for concurrent use.
type Server struct {
	cfg        Config
	base       hw.Config
	baseFailed hw.TileMask
	total      int
	tens       []*tenantState

	// health is the controller's own fault tracker (the per-tenant trackers
	// apply capability; this one reads the global state at barrier time).
	health *faults.State

	// keyers holds one plan-cache keyer per model name, shared by every
	// tenant of that model (nil with the plan cache off).
	keyers map[string]*plancache.Keyer

	fired        int
	sinceRepart  int
	pending      bool // fault or drain forces a controller pass
	repartitions int
	reschedules  int

	ctlRec   *telemetry.Recorder
	ctlTrack telemetry.TrackID

	served bool
}

// tracePrefix namespaces mtserve recorder names under the caller's
// RC.TraceName, so several Servers (e.g. a three-mode -compare run) can
// share one telemetry.Trace without colliding recorder names.
func tracePrefix(name string) string {
	if name == "" {
		return ""
	}
	return name + "/"
}

// New brings up every tenant: demand priors computed, the tile grid split
// (static and repartition modes), machines built and warmed over their
// partitions, HBM shares applied, drift references snapshotted.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("mtserve: no tenants configured")
	}
	if err := cfg.RC.HW.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(cfg.RC.HW); err != nil {
		return nil, err
	}
	nameTenants(cfg.Tenants)
	s := &Server{
		cfg:        cfg,
		base:       cfg.RC.HW,
		baseFailed: cfg.RC.HW.FailedTiles,
		total:      cfg.RC.HW.Tiles(),
	}
	if !cfg.Faults.Empty() {
		s.health = faults.NewState(cfg.Faults)
	}
	if cfg.RC.Trace != nil {
		s.ctlRec = cfg.RC.Trace.Recorder(tracePrefix(cfg.RC.TraceName) + "mtserve/controller")
		s.ctlTrack = s.ctlRec.Track("controller")
	}

	counts, err := s.initialCounts()
	if err != nil {
		return nil, err
	}
	var assign []hw.TileMask
	if cfg.Mode != ModeTimeSlice {
		assign = assignPartitions(counts, s.total, s.baseFailed)
	}
	for i, t := range cfg.Tenants {
		ts, err := s.bringupTenant(i, t, counts[i], assign)
		if err != nil {
			return nil, fmt.Errorf("mtserve: tenant %s: %w", t.Name, err)
		}
		s.tens = append(s.tens, ts)
	}
	return s, nil
}

// initialCounts splits the live tiles by each tenant's demand prior —
// expected work per arrival cycle, or the spec's explicit weight — with a
// MinTiles floor. Time-slicing gives everyone the full chip.
func (s *Server) initialCounts() ([]int, error) {
	n := len(s.cfg.Tenants)
	live := s.total - s.baseFailed.Count()
	if s.cfg.Mode == ModeTimeSlice {
		counts := make([]int, n)
		for i := range counts {
			counts[i] = live
		}
		return counts, nil
	}
	if n*s.cfg.MinTiles > live {
		return nil, fmt.Errorf("mtserve: %d tenants need %d tiles at the %d-tile floor, chip has %d live",
			n, n*s.cfg.MinTiles, s.cfg.MinTiles, live)
	}
	weights := make([]float64, n)
	for i, t := range s.cfg.Tenants {
		if t.Weight > 0 {
			weights[i] = t.Weight
			continue
		}
		w, err := models.ByName(t.Model, s.cfg.MaxBatch)
		if err != nil {
			return nil, err
		}
		work, err := sched.ExpectedWork(w.Graph, sched.Adyna())
		if err != nil {
			return nil, err
		}
		weights[i] = work / t.MeanGapCycles
	}
	eligible := make([]bool, n)
	for i := range eligible {
		eligible[i] = true
	}
	return apportion(weights, eligible, live, s.cfg.MinTiles), nil
}

// bringupTenant builds one tenant: partition mask baked into the machine
// config, warmup profile observed over the partition, HBM share applied.
// The bringup plan is scheduled before the HBM share lands (the share is a
// runtime derate relative to the healthy construction bandwidth), so the
// initial plan slightly overestimates bandwidth; the first re-plan corrects
// it.
func (s *Server) bringupTenant(i int, t Tenant, count int, assign []hw.TileMask) (*tenantState, error) {
	rcT := s.cfg.RC
	rcT.Batch = s.cfg.MaxBatch
	rcT.Seed = s.cfg.RC.Seed + int64(i)
	rcT.TraceName = tracePrefix(s.cfg.RC.TraceName) + "tenant/" + t.Name
	ts := &tenantState{
		idx: i,
		ten: t,
		rep: TenantReport{Name: t.Name, Model: t.Model, Priority: t.Priority},
		// Seed the controller's demand average at half the assigned tiles: a
		// neutral prior that neither hoards nor dumps tiles before the first
		// trusted utilization window lands.
		demandEst: float64(count) / 2,
	}
	if assign != nil {
		ts.owned = assign[i]
		ts.ownFailed = ts.owned.Complement(s.total)
		ts.tiles = count
		ts.share = float64(count) / float64(s.total-s.baseFailed.Count())
		rcT.HW.FailedTiles = ts.ownFailed.Or(s.baseFailed)
	} else {
		ts.tiles = count
		ts.share = 1
	}
	setup, err := core.Bringup(s.cfg.Design, t.Model, rcT, nil)
	if err != nil {
		return nil, err
	}
	ts.setup = setup
	if assign != nil && ts.share < 1 {
		if err := setup.M.SetCapability(rcT.HW.FailedTiles, 1, ts.share); err != nil {
			return nil, err
		}
	}
	ts.det = serve.NewDriftDetector(setup.W.Graph, setup.M.Profiler())
	if !s.cfg.Faults.Empty() {
		ts.health = faults.NewState(s.cfg.Faults)
	}
	ts.rec = setup.Rec
	ts.batcher = serve.NewBatcher(setup, serve.BatchPolicy{
		MaxBatch:        s.cfg.MaxBatch,
		MaxWaitCycles:   t.MaxWaitCycles,
		SLOCycles:       t.SLOCycles,
		QueueCapSamples: s.cfg.QueueCapSamples,
	}, ts.record)
	if ts.rec.Enabled() && ts.health != nil {
		ts.faultTrack = ts.rec.Track("faults")
	}
	s.setupPlanCache(ts, rcT.HW)
	return ts, nil
}

// source builds the tenant's arrival stream. Seeds derive from the base seed
// and the tenant index only, so every sharing mode sees the identical offered
// load — the compare table depends on that.
func (s *Server) source(ts *tenantState) serve.Source {
	t := ts.ten
	seed := s.cfg.RC.Seed + 7919*int64(ts.idx+1) + t.Seed
	var rate *workload.Drift
	if t.RateWalkSD > 0 {
		hi := 4.0
		if t.RateBias > hi {
			hi = t.RateBias
		}
		rate = workload.NewDrift(1, 0.1, hi, t.RateWalkSD)
		if t.RateBias > 0 {
			// Recenter the walk: the arrival rate ramps from 1x toward
			// RateBias x over the stream instead of wandering around 1.
			rate.Center = t.RateBias
		}
		if t.RateRevert > 0 {
			rate.Reverting = t.RateRevert
		}
	}
	return serve.NewSynthetic(t.Requests, t.MeanGapCycles, seed, rate)
}

// Serve drains every tenant's stream under the configured sharing mode and
// returns the combined report. A server serves once.
func (s *Server) Serve() (*Report, error) {
	if s.served {
		return nil, fmt.Errorf("mtserve: server already served its streams")
	}
	s.served = true
	for _, ts := range s.tens {
		ts.src = s.source(ts)
		ts.next, ts.more = ts.src.Next()
	}
	var err error
	if s.cfg.Mode == ModeTimeSlice {
		err = s.runTimeSlice()
	} else {
		err = s.runSpatial()
	}
	if err != nil {
		return nil, err
	}
	return s.report(), nil
}

func (s *Server) report() *Report {
	rep := &Report{Mode: s.cfg.Mode, Design: s.cfg.Design,
		Repartitions: s.repartitions, Reschedules: s.reschedules}
	lats := make([][]float64, len(s.tens))
	for i, ts := range s.tens {
		ts.rep.Tiles = ts.tiles
		for _, o := range ts.rep.Outcomes {
			if o.Outcome != serve.Shed {
				lats[i] = append(lats[i], float64(o.Latency()))
			}
		}
		ts.rep.Latency = metrics.Summarize(lats[i])
		rep.Tenants = append(rep.Tenants, ts.rep)
		rep.Requests += ts.rep.Requests
		rep.Served += ts.rep.Served
		rep.Missed += ts.rep.Missed
		rep.Shed += ts.rep.Shed
		rep.Batches += ts.rep.Batches
		rep.FaultEvents += ts.rep.FaultEvents
		rep.PlanCacheHits += ts.rep.PlanCacheExact + ts.rep.PlanCacheNearest
		rep.PlanCacheMisses += ts.rep.PlanCacheMisses
		rep.ReconfigCycles += ts.rep.ReconfigCycles
		rep.HostSolveCycles += ts.rep.HostSolveCycles
		if ts.rep.FinalCycles > rep.FinalCycles {
			rep.FinalCycles = ts.rep.FinalCycles
		}
	}
	rep.Aggregate = metrics.SummarizeAll(lats...)
	return rep
}

// runSpatial is the static / repartition serving loop: tenants run on
// disjoint partitions with independent clocks, so the loop always steps the
// tenant whose clock lags furthest (ties: higher priority, then spec order),
// keeping the interleaving deterministic and causally consistent with the
// shared controller.
func (s *Server) runSpatial() error {
	for {
		var cur *tenantState
		for _, ts := range s.tens {
			if ts.drained {
				continue
			}
			if cur == nil || spatialBefore(ts, cur) {
				cur = ts
			}
		}
		if cur == nil {
			return nil
		}
		if err := s.stepSpatial(cur); err != nil {
			return err
		}
	}
}

func spatialBefore(a, b *tenantState) bool {
	ca, cb := a.clock(), b.clock()
	if ca != cb {
		return ca < cb
	}
	if a.ten.Priority != b.ten.Priority {
		return a.ten.Priority > b.ten.Priority
	}
	return a.idx < b.idx
}

// stepSpatial advances one tenant by one event: admit arrivals, idle toward
// the next arrival or wait deadline, or fire a batch — serve's dual batching
// policy, per partition.
func (s *Server) stepSpatial(ts *tenantState) error {
	now := ts.clock()
	if err := s.applyTenantFaults(ts, now); err != nil {
		return err
	}
	s.admitUpTo(ts, now)
	if ts.batcher.Len() == 0 {
		if !ts.more {
			s.drainTenant(ts)
			return nil
		}
		s.idleTenantTo(ts, ts.next.Arrival)
		return nil
	}
	fireAt, full := ts.batcher.Due()
	if !full && now < fireAt {
		if ts.more && ts.next.Arrival < fireAt {
			s.idleTenantTo(ts, ts.next.Arrival)
			return nil
		}
		s.idleTenantTo(ts, fireAt)
		if ts.clock() < fireAt {
			return nil // stopped at a fault boundary first
		}
	}
	return s.fireBatch(ts, ts.clock())
}

// runTimeSlice is the naive time-sharing loop: one shared clock, every
// tenant's machine configured for the full chip, and a kernel-store reload
// charged whenever the served tenant changes. Among tenants ready to fire,
// the highest priority wins; ties go to the most urgent head deadline, then
// spec order.
func (s *Server) runTimeSlice() error {
	now := int64(0)
	lastRan := -1
	for {
		allDone := true
		for _, ts := range s.tens {
			if ts.drained {
				continue
			}
			s.admitUpTo(ts, now)
			if ts.batcher.Len() == 0 && !ts.more {
				if now > int64(ts.setup.M.Now()) {
					ts.setup.M.AdvanceTo(sim.Time(now))
				}
				s.drainTenant(ts)
				continue
			}
			allDone = false
		}
		if allDone {
			return nil
		}
		var pick *tenantState
		for _, ts := range s.tens {
			if ts.drained || ts.batcher.Len() == 0 {
				continue
			}
			fireAt, full := ts.batcher.Due()
			if !full && now < fireAt {
				continue
			}
			if pick == nil || slicePrefer(ts, pick) {
				pick = ts
			}
		}
		if pick == nil {
			next, ok := s.nextSliceEvent(now)
			if !ok {
				return fmt.Errorf("mtserve: time-slice loop stalled at cycle %d", now)
			}
			now = next
			continue
		}
		m := pick.setup.M
		m.AdvanceTo(sim.Time(now))
		if err := s.applyTenantFaults(pick, now); err != nil {
			return err
		}
		if lastRan != pick.idx {
			// Context switch: the incoming tenant's kernel store is reloaded
			// through HBM behind a pipeline drain, exactly the reconfiguration
			// cost a plan swap pays.
			before := m.Stats().ReconfigCycles
			if err := m.LoadPlan(pick.setup.Plan); err != nil {
				return err
			}
			pick.rep.ReconfigCycles += m.Stats().ReconfigCycles - before
			lastRan = pick.idx
		}
		if err := s.fireBatch(pick, pick.clock()); err != nil {
			return err
		}
		if t := pick.clock(); t > now {
			now = t
		}
	}
}

func slicePrefer(a, b *tenantState) bool {
	if a.ten.Priority != b.ten.Priority {
		return a.ten.Priority > b.ten.Priority
	}
	da, db := headDeadline(a), headDeadline(b)
	if da != db {
		return da < db
	}
	return a.idx < b.idx
}

// headDeadline is the urgency key of a tenant's oldest queued request: its
// SLO deadline, or its queue-wait deadline without an SLO.
func headDeadline(ts *tenantState) int64 {
	if ts.ten.SLOCycles > 0 {
		return ts.batcher.HeadArrival() + ts.ten.SLOCycles
	}
	return ts.batcher.HeadArrival() + ts.ten.MaxWaitCycles
}

// nextSliceEvent finds the earliest future wait deadline, arrival or fault
// boundary across live tenants.
func (s *Server) nextSliceEvent(now int64) (int64, bool) {
	next := int64(-1)
	consider := func(t int64) {
		if t > now && (next < 0 || t < next) {
			next = t
		}
	}
	for _, ts := range s.tens {
		if ts.drained {
			continue
		}
		if ts.batcher.Len() > 0 {
			fireAt, _ := ts.batcher.Due()
			consider(fireAt)
		}
		if ts.more {
			consider(ts.next.Arrival)
		}
		if ts.health != nil {
			if nc, ok := ts.health.NextChange(now); ok {
				consider(nc)
			}
		}
	}
	return next, next >= 0
}

// admitUpTo admits every arrival with timestamp <= now into the tenant's
// bounded queue, shedding past capacity.
func (s *Server) admitUpTo(ts *tenantState, now int64) {
	for ts.more && ts.next.Arrival <= now {
		ts.batcher.Admit(ts.next)
		ts.next, ts.more = ts.src.Next()
	}
}

// drainTenant marks a tenant's stream complete. In repartition mode the
// freed partition is worth reclaiming, so the next controller pass is forced.
func (s *Server) drainTenant(ts *tenantState) {
	ts.drained = true
	ts.rep.FinalCycles = ts.clock()
	if s.cfg.Mode == ModeRepartition && ts.tiles > 0 {
		live := 0
		for _, other := range s.tens {
			if !other.drained {
				live++
			}
		}
		if live > 0 {
			s.pending = true
		}
	}
}

// idleTenantTo advances the tenant's clock to t, stopping early at the next
// fault boundary so capability changes land on time.
func (s *Server) idleTenantTo(ts *tenantState, t int64) {
	if ts.health != nil {
		if nc, ok := ts.health.NextChange(ts.clock()); ok && nc < t {
			t = nc
		}
	}
	ts.setup.M.AdvanceTo(sim.Time(t))
}

// applyTenantFaults folds the fault schedule into the tenant's machine at
// time now: the global failed mask lands on top of the partition mask, and
// the tenant's HBM share scales by the global degradation. In repartition
// mode a change forces a controller pass; a partition left with zero live
// tiles forces one immediately (the controller reassigns over survivors).
func (s *Server) applyTenantFaults(ts *tenantState, now int64) error {
	if ts.health == nil {
		return nil
	}
	cap, changed := ts.health.At(now)
	if !changed {
		return nil
	}
	ts.rep.FaultEvents++
	eff := ts.ownFailed.Or(s.baseFailed).Or(cap.Failed)
	if ts.rec.Enabled() {
		ts.rec.Instant(ts.faultTrack, "fault", "capability", now,
			telemetry.I("failed_tiles", int64(cap.Failed.Count())),
			telemetry.F("noc", cap.NoC), telemetry.F("hbm", cap.HBM))
	}
	if s.total-eff.Count() == 0 {
		if s.cfg.Mode == ModeRepartition {
			// The whole partition died: reassign everyone over the survivors
			// before this tenant touches its machine again.
			s.pending = true
			return s.repartition(false)
		}
		return fmt.Errorf("mtserve: tenant %s lost every tile of its partition at cycle %d (mode %s cannot re-partition)",
			ts.ten.Name, now, s.cfg.Mode)
	}
	m := ts.setup.M
	if err := m.SetCapability(eff, cap.NoC, ts.share*cap.HBM); err != nil {
		return err
	}
	// The running plan was scheduled for the pre-fault tile set; re-plan over
	// the survivors so every sharing mode stays fault-adaptive within its own
	// discipline (the repartition controller may move tiles again right
	// after). With the plan cache on, a capability the cache has seen — an
	// AOT-precomputed fault window, or a brownout repairing back — is a
	// lookup, not a solve.
	effCap := faults.Capability{Failed: eff, NoC: cap.NoC, HBM: ts.share * cap.HBM}
	plan, _, err := s.lookupOrSchedule(ts, effCap.Apply(s.base))
	if err != nil {
		return fmt.Errorf("mtserve: re-planning tenant %s after fault: %w", ts.ten.Name, err)
	}
	before := m.Stats().ReconfigCycles
	if err := m.LoadPlan(plan); err != nil {
		return err
	}
	ts.rep.ReconfigCycles += m.Stats().ReconfigCycles - before
	ts.rep.Reschedules++
	ts.setup.Plan = plan
	if s.cfg.Mode == ModeRepartition {
		s.pending = true
	}
	return nil
}

// fireBatch forms one batch at the tenant's queue head, executes it on the
// tenant's machine, records outcomes, and gives the controller its hook.
func (s *Server) fireBatch(ts *tenantState, now int64) error {
	f := ts.batcher.Form(now, ts.rep.Batches)
	if f == nil {
		return nil
	}
	if err := ts.setup.M.Run([]workload.Batch{f.Batch}); err != nil {
		return err
	}
	done := ts.clock()
	ts.winBusy += done - now
	ts.winSamples += f.Samples
	ts.batcher.Retire(f, now, done)
	ts.rep.Batches++
	s.fired++
	s.sinceRepart++
	if s.cfg.Mode == ModeRepartition {
		return s.maybeRepartition()
	}
	return nil
}
