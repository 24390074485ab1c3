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
// Each tenant is a serve.Server session on its partition config — an
// ordinary hw.Config whose FailedTiles mark every tile the tenant does not
// own and whose HBMDerate is its bandwidth share (the full chip under
// time-slicing). serve's one loop forms, fires and retires the tenant's
// batches, composes the chip's fault schedule onto the partition
// (faults.Capability.Apply masks and derates on top of it), and keeps the
// tenant's plan cache. mtserve decides which session steps next, re-plans a
// tenant in place after a capability change, moves tiles between sessions
// (serve.Server.Repartition) and charges time-slice context switches. Every
// tenant records onto its own telemetry tracks ("tenant/<name>"). The whole
// simulation is single-threaded virtual time: identical configurations
// produce identical per-request outcome logs at any GOMAXPROCS.
package mtserve

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/serve"
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

// Config parameterizes a multi-tenant Server. A numeric field left at zero,
// here or in a Tenant, takes its default; a negative or non-finite one is an
// error (see Validate).
type Config struct {
	// Tenants lists the co-resident models; at least one is required.
	Tenants []Tenant
	// Design is the machine design every tenant runs (default Adyna); RC
	// carries the shared chip configuration, warmup length, base seed and
	// optional telemetry trace.
	Design core.Design
	RC     core.RunConfig
	// Mode selects the sharing discipline; zero is ModeStatic.
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

	// PlanCache gives every tenant session serve's plan-variant cache:
	// repartition and fault re-plans become lookups when a tenant returns to
	// a previously-seen partition and profile.
	PlanCache bool
	// PlanCacheNearest allows approximate hits within PlanCacheMaxDist
	// (default 0.04) of a cached profile.
	PlanCacheNearest bool
	// PlanCacheMaxDist bounds a nearest hit (default 0.04).
	PlanCacheMaxDist float64
	// PlanCacheAOT precomputes each tenant's cache at bring-up: the fault
	// schedule's degraded configs over the initial partition, solved at the
	// live profile.
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

// Validate rejects a config without tenants, a Mode outside the three
// disciplines, a negative or non-finite numeric field of the config or of
// any tenant, naming it, and a chip or fault schedule that cannot serve.
func (c Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("mtserve: no tenants configured")
	}
	if c.Mode < ModeStatic || c.Mode > ModeRepartition {
		return fmt.Errorf("mtserve: Mode %v is not static, timeslice or repartition", c.Mode)
	}
	errs := []error{
		hw.CheckNonNegative("MaxBatch", c.MaxBatch),
		hw.CheckNonNegative("QueueCapSamples", c.QueueCapSamples),
		hw.CheckNonNegative("MinTiles", c.MinTiles),
		hw.CheckNonNegative("DriftThreshold", c.DriftThreshold),
		hw.CheckNonNegative("CheckEvery", c.CheckEvery),
		hw.CheckNonNegative("CooldownBatches", c.CooldownBatches),
		hw.CheckNonNegative("PlanCacheMaxDist", c.PlanCacheMaxDist),
		hw.CheckNonNegative("HostReschedCycles", c.HostReschedCycles),
		hw.CheckNonNegative("StarvePressure", c.StarvePressure),
	}
	for i, t := range c.Tenants {
		f := fmt.Sprintf("Tenants[%d].", i)
		errs = append(errs,
			hw.CheckNonNegative(f+"SLOCycles", t.SLOCycles),
			hw.CheckNonNegative(f+"MaxWaitCycles", t.MaxWaitCycles),
			hw.CheckNonNegative(f+"MeanGapCycles", t.MeanGapCycles),
			hw.CheckNonNegative(f+"Requests", t.Requests),
			hw.CheckNonNegative(f+"RateWalkSD", t.RateWalkSD),
			hw.CheckNonNegative(f+"RateBias", t.RateBias),
			hw.CheckNonNegative(f+"RateRevert", t.RateRevert),
			hw.CheckNonNegative(f+"Weight", t.Weight),
		)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("mtserve: %w", err)
	}
	if err := c.RC.HW.Validate(); err != nil {
		return err
	}
	return c.Faults.Validate(c.RC.HW)
}

func (c *Config) defaults() {
	if c.Design == "" {
		c.Design = core.DesignAdyna
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = c.RC.Batch
	}
	if c.QueueCapSamples == 0 {
		c.QueueCapSamples = 8 * c.MaxBatch
	}
	if c.MinTiles == 0 {
		c.MinTiles = 2
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.06
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 8
	}
	if c.CooldownBatches == 0 {
		c.CooldownBatches = core.ExecWindow
	}
	if c.StarvePressure == 0 {
		c.StarvePressure = 0.5
	}
	for i := range c.Tenants {
		if c.Tenants[i].Requests == 0 {
			c.Tenants[i].Requests = 400
		}
		if c.Tenants[i].MeanGapCycles == 0 {
			c.Tenants[i].MeanGapCycles = 50_000
		}
	}
}

// TenantReport is one tenant's slice of a serving run: the spec it echoes
// plus its session's own report.
type TenantReport struct {
	// Name, Model and Priority echo the tenant spec (the session report's
	// Model is the graph's display name).
	Name     string
	Model    string
	Priority int
	// Tiles is the tenant's partition size when the stream ended (the full
	// chip under time-slicing).
	Tiles int
	// Report is the tenant session's report: its Reschedules count partition
	// moves and in-place fault re-plans alike, and its ReconfigCycles include
	// time-slice context switches.
	*serve.Report
}

// Report is the outcome of one multi-tenant Serve call.
type Report struct {
	// Mode and Design identify the sharing discipline and machine design.
	Mode   Mode
	Design core.Design
	// Tenants holds the per-tenant reports, in spec order.
	Tenants []TenantReport
	// Counters roll up the tenant sessions' reports (serve.Rollup); Latency
	// pools every tenant's executed requests, so a starved tenant's tail
	// stays visible in the headline percentiles.
	serve.Counters
	// Repartitions counts controller passes that moved tiles between
	// tenants.
	Repartitions int
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
		metrics.F(r.Latency.P50, 0), metrics.F(r.Latency.P99, 0), metrics.F(r.Latency.Mean, 0),
		r.Repartitions, r.Reschedules, r.ReconfigCycles)
	if r.FaultEvents > 0 {
		fmt.Fprintf(&b, " fault-events=%d", r.FaultEvents)
	}
	if hits := r.PlanCacheExact + r.PlanCacheNearest; hits+r.PlanCacheMisses > 0 {
		fmt.Fprintf(&b, " plan-cache=%d/%d", hits, hits+r.PlanCacheMisses)
	}
	if r.HostSolveCycles > 0 {
		fmt.Fprintf(&b, " host-solve=%d", r.HostSolveCycles)
	}
	fmt.Fprintf(&b, " final-clock=%d\n", r.FinalCycles)
	return b.String()
}

// tenantState is one tenant: its serving session on its partition config,
// its arrival stream, and the controller's view of it.
type tenantState struct {
	idx int
	ten Tenant
	srv *serve.Server

	src  serve.Source
	next serve.Request
	more bool

	drained bool
	rep     *serve.Report // the session's report, once drained

	// hw is the tenant's partition config: the tiles it does not own marked
	// failed, its HBM share as the HBM derate (the full chip under
	// time-slicing). owned is its tile set (empty under time-slicing).
	hw    hw.Config
	owned hw.TileMask
	tiles int

	// Demand window: busy cycles since the last partition change, on this
	// tenant's clock (winBusy holds the session's BusyCycles at the window
	// start). The controller turns it into a tiles-equivalent demand
	// estimate, smoothed across controller events in demandEst (a raw
	// window is far too noisy: right after a batch fires, busy/elapsed reads
	// near 1 however idle the tenant is).
	winStart  int64
	winBusy   int64
	demandEst float64
}

func (ts *tenantState) clock() int64 { return ts.srv.Now() }

// feed enqueues the tenant's arrivals up to t into its session.
func (ts *tenantState) feed(t int64) {
	for ts.more && ts.next.Arrival <= t {
		ts.srv.Enqueue(ts.next)
		ts.next, ts.more = ts.src.Next()
	}
}

// Server is the multi-tenant front-end: one serving session per tenant over
// disjoint partitions of the same chip, plus the cross-tenant controller.
// Not safe for concurrent use.
type Server struct {
	cfg        Config
	base       hw.Config
	baseFailed hw.TileMask
	total      int
	tens       []*tenantState

	// health reads the chip's fault capability for the controller (each
	// session folds the same schedule in on its own clock).
	health *faults.State

	fired        int
	sinceRepart  int
	pending      bool // fault or drain forces a controller pass
	repartitions int

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
// (static and repartition modes), and one serving session per tenant built
// and warmed on its partition config.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
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
	// Tenants of one model bring up on one graph and kernel compiler.
	comps := map[string]*sched.Compiler{}
	for i, t := range cfg.Tenants {
		ts := &tenantState{
			idx:   i,
			ten:   t,
			hw:    s.base,
			tiles: counts[i],
			// Seed the controller's demand average at half the assigned
			// tiles: a neutral prior that neither hoards nor dumps tiles
			// before the first trusted utilization window lands.
			demandEst: float64(counts[i]) / 2,
		}
		if assign != nil {
			ts.owned = assign[i]
			ts.hw = s.partitionHW(ts.owned, counts[i], s.total-s.baseFailed.Count())
		}
		scfg := s.sessionConfig(ts)
		scfg.SharedCompiler = comps[t.Model]
		if ts.srv, err = serve.New(scfg); err != nil {
			return nil, fmt.Errorf("mtserve: tenant %s: %w", t.Name, err)
		}
		comps[t.Model] = ts.srv.Setup().Comp
		s.tens = append(s.tens, ts)
	}
	return s, nil
}

// partitionHW is the config of a tenant owning the given tiles out of live
// surviving ones: the chip with every other tile marked failed and its HBM
// bandwidth derated to the tenant's share — a partition is a capability.
func (s *Server) partitionHW(owned hw.TileMask, count, live int) hw.Config {
	return faults.Capability{
		Failed: owned.Complement(s.total),
		NoC:    1,
		HBM:    float64(count) / float64(live),
	}.Apply(s.base)
}

// sessionConfig is a tenant's serving session: its partition config and
// policy at depth 1, serve's own drift re-planning off (the controller owns
// re-plans), the chip's fault schedule, and serve's plan cache.
func (s *Server) sessionConfig(ts *tenantState) serve.Config {
	rc := s.cfg.RC
	rc.HW = ts.hw
	rc.Batch = s.cfg.MaxBatch
	rc.Seed = s.cfg.RC.Seed + int64(ts.idx)
	rc.TraceName = tracePrefix(s.cfg.RC.TraceName) + "tenant/" + ts.ten.Name
	return serve.Config{
		Model:             ts.ten.Model,
		Design:            s.cfg.Design,
		RC:                rc,
		MaxBatch:          s.cfg.MaxBatch,
		MaxWaitCycles:     ts.ten.MaxWaitCycles,
		SLOCycles:         ts.ten.SLOCycles,
		QueueCapSamples:   s.cfg.QueueCapSamples,
		Faults:            s.cfg.Faults,
		PlanCache:         s.cfg.PlanCache,
		PlanCacheNearest:  s.cfg.PlanCacheNearest,
		PlanCacheMaxDist:  s.cfg.PlanCacheMaxDist,
		PlanCacheAOT:      s.cfg.PlanCacheAOT,
		PipelineDepth:     1,
		HostReschedCycles: s.cfg.HostReschedCycles,
	}
}

// initialCounts splits the live tiles by each tenant's demand prior —
// worst-case work per arrival cycle (nothing is profiled yet), or the spec's
// explicit weight — with a MinTiles floor. Time-slicing gives everyone the
// full chip.
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
		weights[i] = float64(w.Graph.MaxMACsPerBatch()) / t.MeanGapCycles
	}
	eligible := make([]bool, n)
	for i := range eligible {
		eligible[i] = true
	}
	return apportion(weights, eligible, live, s.cfg.MinTiles), nil
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
		ts.srv.Begin()
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
	rep := &Report{Mode: s.cfg.Mode, Design: s.cfg.Design, Repartitions: s.repartitions}
	sessions := make([]*serve.Report, len(s.tens))
	for i, ts := range s.tens {
		sessions[i] = ts.rep
		rep.Tenants = append(rep.Tenants, TenantReport{
			Name: ts.ten.Name, Model: ts.ten.Model, Priority: ts.ten.Priority, Tiles: ts.tiles, Report: ts.rep,
		})
	}
	rep.Counters = serve.Rollup(sessions)
	return rep
}

// step takes one action of a tenant's session and answers it: a capability
// change re-plans the tenant in place over its survivors (and, under
// re-partitioning, forces a controller pass) before its next batch forms; a
// fired batch gives the controller its hook; a drained session closes the
// tenant.
func (s *Server) step(ts *tenantState) (serve.StepKind, error) {
	k, err := ts.srv.Step()
	if err != nil {
		return k, fmt.Errorf("mtserve: tenant %s: %w", ts.ten.Name, err)
	}
	switch k {
	case serve.StepFaulted:
		if s.cfg.Mode == ModeRepartition {
			s.pending = true
		}
		if err := ts.srv.Repartition(ts.hw); err != nil {
			return k, fmt.Errorf("mtserve: re-planning tenant %s after fault: %w", ts.ten.Name, err)
		}
	case serve.StepFired:
		s.fired++
		s.sinceRepart++
		if s.cfg.Mode == ModeRepartition {
			return k, s.maybeRepartition()
		}
	case serve.StepDone:
		s.drainTenant(ts)
	}
	return k, nil
}

// runSpatial is the static / repartition serving loop: tenants run on
// disjoint partitions with independent clocks, so the loop always steps the
// tenant whose clock lags furthest (ties: higher priority, then spec order),
// keeping the interleaving deterministic and causally consistent with the
// shared controller. Every stream is enqueued up front.
func (s *Server) runSpatial() error {
	for _, ts := range s.tens {
		ts.feed(math.MaxInt64)
	}
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
		if s.partitionLost(cur) {
			if s.cfg.Mode != ModeRepartition {
				return fmt.Errorf("mtserve: tenant %s lost every tile of its partition at cycle %d (mode %s cannot re-partition)",
					cur.ten.Name, cur.clock(), s.cfg.Mode)
			}
			// Reassign everyone over the survivors before this tenant's
			// session applies the fault.
			s.pending = true
			if err := s.repartition(false); err != nil {
				return err
			}
			if s.partitionLost(cur) {
				return fmt.Errorf("mtserve: tenant %s has no surviving tile at cycle %d", cur.ten.Name, cur.clock())
			}
			continue
		}
		if _, err := s.step(cur); err != nil {
			return err
		}
	}
}

// partitionLost reports whether the chip's fault capability at the tenant's
// clock leaves its partition without a live tile.
func (s *Server) partitionLost(ts *tenantState) bool {
	if s.health == nil {
		return false
	}
	cap, _ := s.health.At(ts.clock())
	return cap.Apply(ts.hw).LiveTiles() == 0
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

// runTimeSlice is the naive time-sharing loop: one shared clock, every
// tenant's session configured for the full chip, and a kernel-store reload
// charged whenever the served tenant changes. Arrivals are enqueued and
// admitted at the shared clock; among tenants ready to fire, the highest
// priority wins, ties go to the most urgent head deadline, then spec order.
func (s *Server) runTimeSlice() error {
	now := int64(0)
	lastRan := -1
	for {
		allDone := true
		for _, ts := range s.tens {
			if ts.drained {
				continue
			}
			ts.feed(now)
			ts.srv.Admit(now)
			if !ts.srv.HasWork() && !ts.more {
				ts.srv.IdleTo(now)
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
			if at, ok := ts.srv.NextFire(); ts.drained || !ok || at > now {
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
		pick.srv.IdleTo(now)
		if lastRan != pick.idx {
			if err := pick.srv.ContextSwitch(); err != nil {
				return err
			}
			lastRan = pick.idx
		}
		for {
			k, err := s.step(pick)
			if err != nil {
				return err
			}
			if k != serve.StepFaulted {
				break
			}
		}
		now = max(now, pick.clock())
	}
}

func slicePrefer(a, b *tenantState) bool {
	if a.ten.Priority != b.ten.Priority {
		return a.ten.Priority > b.ten.Priority
	}
	if da, db := a.srv.HeadDeadline(), b.srv.HeadDeadline(); da != db {
		return da < db
	}
	return a.idx < b.idx
}

// nextSliceEvent finds the earliest future wait deadline or arrival across
// live tenants.
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
		if at, ok := ts.srv.NextFire(); ok {
			consider(at)
		}
		if ts.more {
			consider(ts.next.Arrival)
		}
	}
	return next, next >= 0
}

// drainTenant closes a tenant's session once its stream is complete. In
// repartition mode the freed partition is worth reclaiming, so the next
// controller pass is forced.
func (s *Server) drainTenant(ts *tenantState) {
	ts.drained = true
	ts.rep = ts.srv.Finish()
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
