// Package serve is the online inference front-end over the simulator: the
// serving-time loop the paper's runtime story (Section V: hardware profiler
// driving periodic re-scheduling) implies, made explicit. A Server admits
// timestamped requests, forms batches under a dual policy — a batch-size cap
// or the oldest request's queue-wait deadline, whichever fires first —
// executes them on a persistent accelerator machine, and watches the on-chip
// profiler for distribution drift. When the live profile diverges from the
// one the current plan was scheduled from, a new plan is computed off the
// request hot path (host-side, DyCL-style compile/dispatch split) and
// swapped in; only the swap itself — pipeline drain plus kernel-store
// reload — lands on the machine clock. Overload is handled by bounded-queue
// load shedding with per-request outcomes.
//
// Everything runs in virtual time on the machine's own clock, single
// threaded and deterministic: the same seed and configuration produce an
// identical per-request outcome log at any GOMAXPROCS.
package serve

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/plancache"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Outcome is a request's terminal state.
type Outcome uint8

// The per-request outcomes.
const (
	// Served: executed and completed within the SLO.
	Served Outcome = iota
	// DeadlineMissed: executed, but completed after the SLO deadline.
	DeadlineMissed
	// Shed: never executed — rejected at admission because the queue was
	// full, or dropped at batch formation because its SLO had already
	// expired while it queued.
	Shed
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Served:
		return "served"
	case DeadlineMissed:
		return "deadline-missed"
	case Shed:
		return "shed"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Config parameterizes a Server. A numeric field left at zero takes its
// default; a negative or non-finite one is an error (see Validate).
type Config struct {
	// Model is the workload to serve; Design is the machine design (default
	// Adyna); RC carries the hardware config, warmup length and seed. RC.Batch
	// sizes the graph's maximum batch and defaults MaxBatch.
	Model  string
	Design core.Design
	RC     core.RunConfig

	// MaxBatch caps a formed batch, in samples (default RC.Batch).
	MaxBatch int
	// MaxWaitCycles is the queue-wait deadline of the oldest queued request:
	// a partial batch fires once its head has waited this long (default
	// SLOCycles/4, or 100k cycles without an SLO).
	MaxWaitCycles int64
	// SLOCycles is the per-request completion deadline measured from arrival
	// (0 disables deadline accounting: nothing is ever missed or expired).
	SLOCycles int64
	// QueueCapSamples bounds the admission queue; arrivals beyond it are
	// shed (default 8x MaxBatch).
	QueueCapSamples int

	// Faults optionally injects a hardware fault schedule (nil or empty: the
	// chip stays healthy and the serving path is byte-identical to a server
	// built without one). Capability changes apply between batches; with
	// Reschedule enabled they additionally trigger an emergency re-plan over
	// the surviving tiles (see health.go).
	Faults *faults.Schedule

	// Reschedule enables the drift-triggered re-scheduler and, when a fault
	// schedule is present, fault-aware re-scheduling.
	Reschedule bool
	// PlanCache enables the plan-variant cache (internal/plancache): drift
	// and fault re-plans first look up the cached plan for the live hardware
	// config, policy and profile, and only solve fresh on a miss. Exact hits
	// return a plan byte-identical to a fresh solve.
	PlanCache bool
	// PlanCacheNearest additionally allows approximate hits: the closest
	// cached profile within PlanCacheMaxDist (same units as DriftThreshold)
	// matches even when the fingerprint differs.
	PlanCacheNearest bool
	// PlanCacheMaxDist bounds a nearest hit (default 0.04).
	PlanCacheMaxDist float64
	// PlanCacheAOT precomputes the cache at bring-up: one plan per distinct
	// degraded config the fault schedule will produce, solved at the live
	// profile. Without a fault schedule it adds nothing.
	PlanCacheAOT bool
	// SharedPlanCache, when non-nil, uses the given cache instead of
	// building a private one — warm restarts and replica fleets share solved
	// plans this way. Implies PlanCache.
	SharedPlanCache *plancache.Cache
	// SharedCompiler, when non-nil, brings the server up on the given kernel
	// compile memo and its graph instead of building its own (see
	// core.BringupOn) — replica fleets and same-model tenants compile each
	// kernel once this way. Its graph must be Model's at RC.Batch.
	SharedCompiler *sched.Compiler
	// PlanCacheOrigin tags this server's cache stores (a replica name in a
	// fleet): hits on entries another origin solved count in the cache's
	// SharedHits statistic. Empty outside fleets.
	PlanCacheOrigin string
	// PlanCacheGate, when non-nil, is invoked once before every shared-plan-
	// cache access made while the server is being stepped. A fleet stepping
	// replicas concurrently installs a canonical-order gate here so that
	// replica i's cache traffic waits for replicas 0..i-1 to finish the
	// current window — reproducing exactly the cache visibility order of
	// sequential replica stepping, which keeps parallel outcomes
	// byte-identical to workers=1. Nil (every non-fleet path) is a no-op.
	PlanCacheGate func()
	// PipelineDepth bounds how many batches execute concurrently on the
	// machine (see pipeline.go): batch k+1's admission and formation overlap
	// batch k's compute in virtual time. Depth 1 (the default) retires each
	// batch before the next one forms, so admission waits out every batch's
	// execution.
	PipelineDepth int
	// HostReschedCycles charges the host-side solve latency of a re-plan
	// into virtual time (the machine idles while the scheduler runs). Cache
	// hits skip the charge — that asymmetry is what lets cached serving
	// afford aggressive drift thresholds. Zero keeps re-plans free on the
	// machine clock, as before.
	HostReschedCycles int64
	// DriftThreshold is the profile divergence (mean absolute per-branch
	// difference, see detector) that triggers a re-schedule (default 0.06).
	DriftThreshold float64
	// CheckEvery is the drift-check cadence in executed batches (default 8).
	CheckEvery int
	// CooldownBatches is the minimum number of executed batches between
	// re-schedules, which is also the observation window a fresh profile
	// needs before its statistics mean anything (default core.ExecWindow).
	CooldownBatches int
}

// Validate rejects a negative or non-finite numeric field, naming it, and a
// fault schedule the chip cannot take.
func (c Config) Validate() error {
	if err := errors.Join(
		hw.CheckNonNegative("MaxBatch", c.MaxBatch),
		hw.CheckNonNegative("MaxWaitCycles", c.MaxWaitCycles),
		hw.CheckNonNegative("SLOCycles", c.SLOCycles),
		hw.CheckNonNegative("QueueCapSamples", c.QueueCapSamples),
		hw.CheckNonNegative("PlanCacheMaxDist", c.PlanCacheMaxDist),
		hw.CheckNonNegative("PipelineDepth", c.PipelineDepth),
		hw.CheckNonNegative("HostReschedCycles", c.HostReschedCycles),
		hw.CheckNonNegative("DriftThreshold", c.DriftThreshold),
		hw.CheckNonNegative("CheckEvery", c.CheckEvery),
		hw.CheckNonNegative("CooldownBatches", c.CooldownBatches),
	); err != nil {
		return fmt.Errorf("serve: %w", err)
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
	if c.MaxWaitCycles == 0 {
		if c.SLOCycles > 0 {
			c.MaxWaitCycles = c.SLOCycles / 4
		} else {
			c.MaxWaitCycles = 100_000
		}
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 1
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
}

// RequestResult is one request's outcome record.
type RequestResult struct {
	// ID and Arrival echo the request's identity and arrival cycle.
	ID      int
	Arrival int64
	// Done is the completion cycle (0 for shed requests).
	Done    int64
	Outcome Outcome
}

// Latency returns the request's completion latency in cycles (meaningless
// for shed requests).
func (r RequestResult) Latency() int64 { return r.Done - r.Arrival }

// Counters are a session's totals: the one counter schema serve, mtserve and
// fleet share. A front-end running several sessions (mtserve tenants, fleet
// replicas) rolls their reports up with Rollup instead of re-summing fields.
type Counters struct {
	// Requests counts every admitted-or-shed request; Served, Missed and Shed
	// split it by outcome.
	Requests, Served, Missed, Shed int
	// Batches counts executed batches; Reschedules the drift-triggered plan
	// swaps plus the re-plans Repartition performed.
	Batches, Reschedules int
	// FaultEvents counts capability changes applied during the stream;
	// HealthReschedules counts the emergency re-plans they triggered (both
	// zero without a fault schedule).
	FaultEvents, HealthReschedules int
	// PlanCacheExact, PlanCacheNearest and PlanCacheMisses split this run's
	// re-plans by plan-cache outcome (all zero with the cache disabled).
	PlanCacheExact, PlanCacheNearest, PlanCacheMisses int
	// ReconfigCycles is the machine time spent in plan swaps (pipeline
	// drain + kernel-store reload), time-slice context switches included.
	ReconfigCycles int64
	// HostSolveCycles is the virtual time charged for host-side solves
	// (HostReschedCycles per cache miss; zero when the knob is off).
	HostSolveCycles int64
	// FinalCycles is the machine clock when the stream drained.
	FinalCycles int64
	// MaxDivergence is the largest profile divergence seen at a drift check
	// (0 when rescheduling is off or no check ever ran).
	MaxDivergence float64
	// Latency summarizes completion latency (cycles, arrival to done) over
	// executed requests — served and deadline-missed alike.
	Latency metrics.Summary
}

// Report is the outcome of one Serve call.
type Report struct {
	// Model and Design identify the served workload and machine design.
	Model  string
	Design core.Design
	Counters
	// Outcomes is the per-request log, in terminal order.
	Outcomes []RequestResult
}

// Rollup combines session reports in order: counts and cycles add,
// FinalCycles and MaxDivergence take the maximum, and Latency summarizes
// every report's executed requests pooled into one distribution, so one
// session's tail stays visible in the combined percentiles.
func Rollup(reps []*Report) Counters {
	var c Counters
	for _, r := range reps {
		c.Requests += r.Requests
		c.Served += r.Served
		c.Missed += r.Missed
		c.Shed += r.Shed
		c.Batches += r.Batches
		c.Reschedules += r.Reschedules
		c.FaultEvents += r.FaultEvents
		c.HealthReschedules += r.HealthReschedules
		c.PlanCacheExact += r.PlanCacheExact
		c.PlanCacheNearest += r.PlanCacheNearest
		c.PlanCacheMisses += r.PlanCacheMisses
		c.ReconfigCycles += r.ReconfigCycles
		c.HostSolveCycles += r.HostSolveCycles
		c.FinalCycles = max(c.FinalCycles, r.FinalCycles)
		c.MaxDivergence = max(c.MaxDivergence, r.MaxDivergence)
	}
	c.Latency = executedLatency(reps)
	return c
}

// executedLatency summarizes the completion latency of every executed (not
// shed) request across the reports, in report order.
func executedLatency(reps []*Report) metrics.Summary {
	n := 0
	for _, r := range reps {
		n += len(r.Outcomes)
	}
	lats := make([]float64, 0, n)
	for _, r := range reps {
		for _, o := range r.Outcomes {
			if o.Outcome != Shed {
				lats = append(lats, float64(o.Latency()))
			}
		}
	}
	return metrics.Summarize(lats)
}

func (r *Report) record(res RequestResult) {
	r.Requests++
	switch res.Outcome {
	case Served:
		r.Served++
	case DeadlineMissed:
		r.Missed++
	case Shed:
		r.Shed++
	}
	r.Outcomes = append(r.Outcomes, res)
}

// ShedRate returns the fraction of requests shed.
func (r *Report) ShedRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Requests)
}

// MissRate returns the fraction of requests that executed but missed the SLO.
func (r *Report) MissRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.Requests)
}

// String renders the report as the serving table cmd/serve prints.
func (r *Report) String() string {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Serving report: %s on %s", r.Model, r.Design),
		Columns: []string{"Metric", "Value"},
	}
	t.AddRow("requests", fmt.Sprint(r.Requests))
	t.AddRow("served", fmt.Sprint(r.Served))
	t.AddRow("deadline-missed", fmt.Sprint(r.Missed))
	t.AddRow("shed", fmt.Sprintf("%d (%.1f%%)", r.Shed, r.ShedRate()*100))
	t.AddRow("batches", fmt.Sprint(r.Batches))
	t.AddRow("reschedules", fmt.Sprint(r.Reschedules))
	if r.FaultEvents > 0 || r.HealthReschedules > 0 {
		t.AddRow("fault events", fmt.Sprint(r.FaultEvents))
		t.AddRow("health reschedules", fmt.Sprint(r.HealthReschedules))
	}
	if n := r.PlanCacheExact + r.PlanCacheNearest + r.PlanCacheMisses; n > 0 {
		t.AddRow("plan-cache hits", fmt.Sprintf("%d exact + %d nearest / %d re-plans",
			r.PlanCacheExact, r.PlanCacheNearest, n))
	}
	if r.HostSolveCycles > 0 {
		t.AddRow("host solve cycles", fmt.Sprint(r.HostSolveCycles))
	}
	t.AddRow("reconfig cycles", fmt.Sprint(r.ReconfigCycles))
	t.AddRow("max divergence", metrics.F(r.MaxDivergence, 3))
	t.AddRow("latency p50 (cycles)", metrics.F(r.Latency.P50, 0))
	t.AddRow("latency p95 (cycles)", metrics.F(r.Latency.P95, 0))
	t.AddRow("latency p99 (cycles)", metrics.F(r.Latency.P99, 0))
	t.AddRow("latency mean (cycles)", metrics.F(r.Latency.Mean, 0))
	t.AddRow("final clock (cycles)", fmt.Sprint(r.FinalCycles))
	return t.String()
}

// Server is the online front-end: one brought-up machine plus admission
// state. Not safe for concurrent use — the serving loop is a deterministic
// single-threaded discrete-event simulation.
type Server struct {
	cfg    Config
	setup  *core.Setup
	det    *detector
	health *faults.State    // nil without a fault schedule
	pcache *plancache.Cache // nil with the plan cache disabled

	batcher      *batcher
	pending      []Request    // enqueued by a fleet router, not yet admitted
	inflight     []*pipeEntry // submitted, unretired batches
	rep          *Report
	sinceResched int
	busy         int64 // summed execution spans of retired batches

	// keyer and planKey support plan-affinity routing: planKey is the
	// quantized branch-share snapshot of the profile the current plan was
	// solved from, refreshed on every re-plan.
	keyer   *plancache.Keyer
	planKey plancache.ProfileKey

	// rec is the telemetry recorder shared with the machine (nil when
	// Config.RC.Trace was nil): the batcher records batch spans, shed and
	// deadline-miss instants and queue-depth samples on the serve track; the
	// server adds drift-detector evaluations and fault events on its own.
	rec        *telemetry.Recorder
	driftTrack telemetry.TrackID
	faultTrack telemetry.TrackID
}

// New brings up a server: machine built, warmup profile observed, initial
// plan scheduled from it and loaded, drift reference snapshotted.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	setup, err := core.BringupOn(cfg.SharedCompiler, cfg.Design, cfg.Model, cfg.RC, nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		setup:  setup,
		det:    newDetector(setup.W.Graph, setup.M.Profiler()),
		health: healthState(cfg.Faults),
		rec:    setup.Rec,
	}
	s.batcher = newBatcher(setup, batchPolicy{
		MaxBatch:        cfg.MaxBatch,
		MaxWaitCycles:   cfg.MaxWaitCycles,
		SLOCycles:       cfg.SLOCycles,
		QueueCapSamples: cfg.QueueCapSamples,
	}, func(r RequestResult) { s.rep.record(r) })
	if s.rec.Enabled() {
		s.driftTrack = s.rec.Track("drift")
		if s.health != nil {
			s.faultTrack = s.rec.Track("faults")
		}
	}
	if cfg.PlanCache || cfg.SharedPlanCache != nil {
		s.pcache = cfg.SharedPlanCache
		if s.pcache == nil {
			keyer := plancache.NewKeyer(setup.W.Graph)
			s.pcache = plancache.New(keyer, plancache.Config{
				Nearest: cfg.PlanCacheNearest,
				MaxDist: cfg.PlanCacheMaxDist,
			})
		}
		// Seed the cache with the bring-up plan: the profiler still holds
		// exactly the warmup state that plan was solved from, so the entry's
		// fingerprint is the one a fresh solve of the same state would key.
		s.pcache.PutFor(cfg.PlanCacheOrigin, cfg.RC.HW, setup.Policy, setup.M.Profiler(), setup.Plan)
		if cfg.PlanCacheAOT {
			s.pcache.Precompute(cfg.RC.HW, setup.Comp, setup.Policy, setup.M.Profiler(), cfg.Faults)
		}
	}
	if s.pcache != nil {
		s.keyer = s.pcache.Keyer()
	} else {
		s.keyer = plancache.NewKeyer(setup.W.Graph)
	}
	// The bring-up plan was solved from the warmup profile the profiler still
	// holds; snapshot its branch shares as the plan's affinity key.
	s.planKey = s.keyer.ShareKey(setup.M.Profiler())
	return s, nil
}

// PlanCacheStats returns the plan cache's lifetime counters (zero value with
// the cache disabled).
func (s *Server) PlanCacheStats() plancache.Stats {
	if s.pcache == nil {
		return plancache.Stats{}
	}
	return s.pcache.Stats()
}

// PlanCache returns the server's plan cache (nil when disabled) — handed to
// a successor server as Config.SharedPlanCache, a warm restart keeps every
// solved variant.
func (s *Server) PlanCache() *plancache.Cache { return s.pcache }

// Setup exposes the brought-up machine bundle (tests and tools).
func (s *Server) Setup() *core.Setup { return s.setup }

// Serve drains the request stream and returns the outcome report. The
// machine clock and profiler state persist across calls, so successive Serve
// calls model one long-running deployment.
//
// Serve is a thin driver over the incremental session API (Begin / StepTo /
// Enqueue / Drain / Finish) — the same loop a fleet router runs across many
// servers, collapsed onto one. The two paths are byte-identical by
// construction.
func (s *Server) Serve(src Source) (*Report, error) {
	s.Begin()
	for req, more := src.Next(); more; req, more = src.Next() {
		if err := s.StepTo(req.Arrival); err != nil {
			return nil, err
		}
		s.Enqueue(req)
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// Begin opens an incremental serving session: a fresh report and drift
// cooldown. Callers driving the server themselves (the fleet router) call
// Begin once, then interleave Enqueue and StepTo, and close with Drain and
// Finish. The machine clock and profiler persist across sessions.
func (s *Server) Begin() {
	s.rep = &Report{Model: s.setup.W.Name, Design: s.cfg.Design}
	s.sinceResched = 0
}

// Enqueue hands the server a request routed to it. The request joins a
// pending buffer and is admitted (or shed) once the serving loop's clock
// reaches its arrival time — which requires a StepTo call whose horizon
// covers it. Requests must be enqueued in non-decreasing arrival order.
func (s *Server) Enqueue(req Request) {
	s.pending = append(s.pending, req)
}

// StepTo advances the serving loop until every action whose decision time
// lies before the horizon has been taken: pending arrivals admitted, full
// batches fired, queue-wait deadlines honored, fault events applied. A
// decision at or past the horizon is deferred — arrivals at the horizon
// itself may still be routed here, so the loop must not commit to a batch
// before seeing them. On return the machine clock is at or past the horizon
// (exactly at it when the server is idle).
func (s *Server) StepTo(horizon int64) error {
	for {
		k, err := s.step(horizon, false)
		if err != nil || k == StepDone {
			return err
		}
	}
}

// Drain serves out every enqueued and queued request with no further
// arrivals coming: the stream tail honors the same dual batching policy as
// steady state (a final partial batch waits out MaxWaitCycles). It repeats
// Step until the session is done.
func (s *Server) Drain() error {
	for {
		k, err := s.Step()
		if err != nil || k == StepDone {
			return err
		}
	}
}

// Step takes one action of Drain's loop — idle toward the next decision,
// apply a capability change, fire one batch, or close the session once
// nothing is queued, pending or in flight — and reports which. Everything
// enqueued counts as known arrivals. A caller driving several sessions
// (internal/mtserve) interleaves their Steps on one virtual timeline. With
// Reschedule off a capability change ends the step before any batch forms,
// so the caller can answer it (Repartition) first.
func (s *Server) Step() (StepKind, error) {
	return s.step(0, true)
}

// Finish closes the session opened by Begin and returns its report.
func (s *Server) Finish() *Report {
	rep := s.rep
	rep.Latency = executedLatency([]*Report{rep})
	rep.FinalCycles = s.Now()
	return rep
}

// Admit admits (or sheds, past queue capacity) every enqueued request that
// has arrived by now, in enqueue order. The serving loop admits at its own
// clock; a caller arbitrating several sessions on a shared clock admits
// through it before testing readiness with NextFire.
func (s *Server) Admit(now int64) {
	i := 0
	for i < len(s.pending) && s.pending[i].Arrival <= now {
		s.batcher.Admit(s.pending[i])
		i++
	}
	if i > 0 {
		s.pending = s.pending[i:]
	}
}

// Now returns the machine clock in cycles.
func (s *Server) Now() int64 { return int64(s.setup.M.Now()) }

// IdleTo idles the machine clock forward to t (a no-op at or past t). A
// caller running several sessions on one shared timeline brings a session up
// to the shared clock before it acts.
func (s *Server) IdleTo(t int64) { s.setup.M.AdvanceTo(sim.Time(t)) }

// ContextSwitch reloads the live plan as a time-slice context switch into
// this session: the kernel store is reloaded through HBM behind a pipeline
// drain, exactly the reconfiguration a plan swap pays, and the cycles are
// charged to the session's ReconfigCycles. The session must be open.
func (s *Server) ContextSwitch() error {
	if err := s.drainInflight(false); err != nil {
		return err
	}
	_, err := s.load(s.setup.Plan)
	return err
}

// QueuedSamples returns the backlog visible to a router: admitted queue
// samples plus enqueued-but-unadmitted pending samples.
func (s *Server) QueuedSamples() int {
	n := s.batcher.Samples()
	for _, req := range s.pending {
		if req.Samples > 0 {
			n += req.Samples
		} else {
			n++
		}
	}
	return n
}

// HasWork reports whether any request is still queued or pending.
func (s *Server) HasWork() bool { return s.batcher.Len() > 0 || len(s.pending) > 0 }

// AdmittedSamples returns the samples in the admission queue (enqueued
// requests not yet admitted excluded).
func (s *Server) AdmittedSamples() int { return s.batcher.Samples() }

// NextFire returns when the queue head's batch may fire under the dual
// policy: its queue-wait deadline, or its arrival once the batch is full.
// ok is false with an empty queue.
func (s *Server) NextFire() (at int64, ok bool) {
	if s.batcher.Len() == 0 {
		return 0, false
	}
	fireAt, full := s.batcher.Due()
	if full {
		return s.batcher.HeadArrival(), true
	}
	return fireAt, true
}

// HeadDeadline returns the urgency of the oldest queued request: its SLO
// deadline, or its queue-wait deadline without an SLO. The queue must not be
// empty.
func (s *Server) HeadDeadline() int64 {
	d := s.cfg.MaxWaitCycles
	if s.cfg.SLOCycles > 0 {
		d = s.cfg.SLOCycles
	}
	return s.batcher.HeadArrival() + d
}

// Divergence returns the live profile's drift from the profile the current
// plan was built from (the statistic DriftThreshold gates).
func (s *Server) Divergence() float64 { return s.det.Divergence() }

// BusyCycles returns the summed execution spans, submission to completion,
// of every batch retired so far.
func (s *Server) BusyCycles() int64 { return s.busy }

// Repartition moves the server onto a new hardware config — a tenant's tile
// partition and HBM share, expressed as failed tiles and an HBM derate — and
// re-plans for it: fault events that struck by now fold in first, the
// machine takes the config with the live fault capability composed onto it,
// and replan swaps in a plan for that (cache lookup, host-solve charge,
// LoadPlan, profiler reset, drift rebase). Called with the current config it
// re-plans in place. Counts as a reschedule; the session must be open.
func (s *Server) Repartition(cfg hw.Config) error {
	s.cfg.RC.HW = cfg
	if _, err := s.applyFaults(s.Now()); err != nil {
		return err
	}
	if err := s.drainInflight(false); err != nil {
		return err
	}
	if err := s.setCapability(); err != nil {
		return err
	}
	if _, err := s.replan(s.driftTrack, "drift"); err != nil {
		return err
	}
	s.rep.Reschedules++
	return nil
}

// Busy returns how many cycles of in-flight batch execution remain past the
// given instant (the machine clock overshoots a step horizon exactly when a
// batch is executing across it). A router stepping the server to time t can
// therefore see occupancy the queue depth alone hides.
func (s *Server) Busy(now int64) int64 {
	if d := int64(s.setup.M.Now()) - now; d > 0 {
		return d
	}
	return 0
}

// PlanKey returns the affinity key of the current plan: the quantized
// branch-share snapshot of the profile it was solved from.
func (s *Server) PlanKey() plancache.ProfileKey { return s.planKey }

// Keyer returns the plan-affinity keyer (the plan cache's when one is
// enabled, a private one otherwise).
func (s *Server) Keyer() *plancache.Keyer { return s.keyer }

// EvictQueued removes every queued and pending request without recording an
// outcome and returns them in arrival order. The fleet layer uses it when a
// replica fails: the backlog re-routes to survivors, with the queue time
// already accrued charged into their eventual latency.
func (s *Server) EvictQueued() []Request {
	// Batches already executing complete and record their outcomes first:
	// eviction hands back the *backlog*, not work the machine (and
	// profiler) has already absorbed. Should the stream stall (a machine
	// deadlock), the affected requests can only be shed.
	if err := s.drainInflight(false); err != nil {
		for _, e := range s.inflight {
			for _, req := range e.batch.reqs {
				s.rep.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Outcome: Shed})
			}
		}
		s.inflight = nil
	}
	out := append(s.batcher.Evict(), s.pending...)
	s.pending = nil
	return out
}

// maybeReschedule re-plans when the live profile has drifted past the
// threshold. The plan itself is computed host-side while the accelerator
// keeps serving (the schedule decision stays off the request hot path); only
// the swap — pipeline drain plus kernel-store reload, charged by LoadPlan —
// lands on the machine clock, exactly like the periodic reconfiguration of
// the offline runner.
func (s *Server) maybeReschedule() error {
	share, active, density, div := s.det.evaluate()
	if div > s.rep.MaxDivergence {
		s.rep.MaxDivergence = div
	}
	cooling := s.sinceResched < s.cfg.CooldownBatches
	triggered := !cooling && div >= s.cfg.DriftThreshold
	if s.rec.Enabled() {
		// One instant per drift check, whether or not it fires: every branch
		// statistic the detector maxes over, the threshold, and what the
		// check decided. A trace therefore shows which statistic pushed a
		// re-plan — and how close the quiet checks came. The cost-model
		// memo counters ride along at the same cadence, so a trace also
		// shows how effectively the live plan's evaluations are cached.
		ts := int64(s.setup.M.Now())
		s.rec.Instant(s.driftTrack, "drift", "drift-eval", ts,
			telemetry.F("share", share), telemetry.F("active", active),
			telemetry.F("divergence", div), telemetry.F("threshold", s.cfg.DriftThreshold),
			telemetry.B("cooldown", cooling), telemetry.B("triggered", triggered))
		if s.det.hasDensity {
			// Density-aware graphs additionally record the sparsity axis at the
			// same cadence: the live windowed density mean, its plan-time
			// reference, and the resulting drift part. A density-only shift
			// shows up here first, before the combined divergence crosses the
			// threshold.
			s.rec.Instant(s.driftTrack, "drift", "density-eval", ts,
				telemetry.F("density_mean", s.setup.M.Profiler().OpDensityMean()),
				telemetry.F("base_density", s.det.base.Density),
				telemetry.F("density_drift", density))
		}
		ch, cm := s.setup.Plan.CacheStats()
		s.rec.Counter(s.driftTrack, "drift", "costmodel_hits", ts, ch)
		s.rec.Counter(s.driftTrack, "drift", "costmodel_misses", ts, cm)
	}
	if !triggered {
		return nil
	}
	swap, err := s.replan(s.driftTrack, "drift")
	if err != nil {
		return err
	}
	if s.rec.Enabled() {
		s.rec.Instant(s.driftTrack, "drift", "reschedule", int64(s.setup.M.Now()),
			telemetry.F("divergence", div),
			telemetry.I("swap_cycles", swap))
	}
	s.rep.Reschedules++
	return nil
}

// replan computes (or looks up) a plan for the live hardware config from the
// live profile and swaps it in — the shared tail of the drift and fault
// re-schedule paths. With the plan cache enabled the solve becomes a lookup:
// exact hits dispatch the stored plan, misses solve fresh and store the
// result. HostReschedCycles charges the host solve into virtual time on
// every solve (cache miss or cache disabled); hits charge ~nothing beyond
// the LoadPlan drain+reload. Afterwards the profiling window ages and the
// drift reference rebases on the profile the new plan was built from.
// Returns the swap's reconfiguration cycles.
func (s *Server) replan(track telemetry.TrackID, trackName string) (int64, error) {
	// A plan swap needs a drained pipeline (LoadPlan's contract): in-flight
	// batches retire here, outcomes recorded in submission order.
	if err := s.drainInflight(false); err != nil {
		return 0, err
	}
	m := s.setup.M
	cfg := s.liveHW()
	var plan *sched.Plan
	kind := plancache.Miss
	var err error
	if s.pcache != nil {
		if gate := s.cfg.PlanCacheGate; gate != nil {
			// Parallel fleet windows: wait for canonically-earlier replicas
			// before touching the shared cache (see Config.PlanCacheGate).
			gate()
		}
		plan, kind, err = s.pcache.GetOrScheduleFor(s.cfg.PlanCacheOrigin, cfg, s.setup.Comp, s.setup.Policy, m.Profiler())
	} else {
		plan, err = s.setup.Comp.Schedule(cfg, s.setup.Policy, m.Profiler())
	}
	if err != nil {
		return 0, err
	}
	switch kind {
	case plancache.HitExact:
		s.rep.PlanCacheExact++
	case plancache.HitNearest:
		s.rep.PlanCacheNearest++
	default:
		if s.pcache != nil {
			s.rep.PlanCacheMisses++
		}
		if s.cfg.HostReschedCycles > 0 {
			// The machine idles out the host-side solve before the new plan
			// can be swapped in. Hits skip this entirely — the cached plan
			// is ready the moment drift is detected.
			m.AdvanceTo(m.Now() + sim.Time(s.cfg.HostReschedCycles))
			s.rep.HostSolveCycles += s.cfg.HostReschedCycles
		}
	}
	if s.rec.Enabled() && s.pcache != nil {
		st := s.pcache.Stats()
		s.rec.Instant(track, trackName, "plan-cache", int64(m.Now()),
			telemetry.S("result", kind.String()),
			telemetry.I("entries", int64(st.Entries)),
			telemetry.I("hits", st.Hits()), telemetry.I("misses", st.Misses))
	}
	swap, err := s.load(plan)
	if err != nil {
		return 0, err
	}
	s.setup.Plan = plan
	// Snapshot the profile the new plan answers to before the window ages:
	// this is the affinity key routers match request fingerprints against.
	s.planKey = s.keyer.ShareKey(m.Profiler())
	m.Profiler().Reset()
	s.det.Rebase()
	s.sinceResched = 0
	return swap, nil
}

// load installs a plan on the drained machine and charges the swap —
// kernel-store reload plus control penalty — to ReconfigCycles.
func (s *Server) load(plan *sched.Plan) (int64, error) {
	m := s.setup.M
	before := m.Stats().ReconfigCycles
	if err := m.LoadPlan(plan); err != nil {
		return 0, err
	}
	swap := m.Stats().ReconfigCycles - before
	s.rep.ReconfigCycles += swap
	return swap, nil
}
