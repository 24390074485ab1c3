// Package fleet scales the serving stack out: K replicas — homogeneous or
// heterogeneous hw.Configs, each a persistent serve.Server brought up via
// core.Bringup — behind a router with pluggable policies (round-robin,
// join-shortest-queue, and plan-affinity routing that matches a request's
// routing fingerprint against each replica's current plan key using the
// plan cache's quantization). The replicas share one plancache.Cache, so a
// drift re-plan solved on one replica is a warm hit on its peers.
//
// Everything advances on one virtual timeline: the router is a
// single-threaded discrete-event loop that steps every replica to each
// event time (arrival, re-route, or replica fault boundary) before acting,
// using the server's incremental session API. Determinism therefore carries
// over from the single-machine stack — same seeds, same outcome log at any
// GOMAXPROCS — and replica bring-up order is canonicalized (sorted by name)
// so it cannot leak into results.
//
// Replica-level fault domains reuse internal/faults with replica indices in
// place of tile indices: a failed replica's backlog is evicted and
// re-routed to survivors after a configurable delay, with the queue time
// already accrued charged into the survivors' latency. Elastic scale-up and
// scale-down react to sustained aggregate queue depth.
package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/plancache"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Config parameterizes a Fleet. A numeric field left at zero takes its
// default; a negative one is an error (see Validate).
type Config struct {
	// Base is the per-replica server template: model, run config, batching,
	// SLO, drift and plan-cache knobs. Each replica gets a copy with its own
	// hardware config, seed, trace name and cache origin. When Base.PlanCache
	// is set the first replica's cache is shared by all replicas (explicitly
	// passing Base.SharedPlanCache also works, e.g. for a pre-warmed cache).
	Base serve.Config
	// Replicas lists the fleet members. Names must be unique; bring-up order
	// is canonicalized by sorting on name, so spec order never matters.
	Replicas []ReplicaSpec
	// Policy selects the routing policy.
	Policy Policy

	// Deprecated: ignored; replicas step on the caller's goroutine. Deleted
	// with ROADMAP item 6's perfbench PR. Validate still rejects a negative
	// value.
	Workers int

	// ReplicaFaults optionally schedules replica-level fault domains: tile
	// indices name replicas (in sorted-name order). Only tile kinds (fail,
	// brownout) apply at this level — a fleet has no NoC or HBM to derate.
	// A killed replica's backlog re-routes to survivors; a repaired replica
	// rejoins the eligible set. Per-replica chip-level fault schedules go in
	// Base.Faults instead.
	ReplicaFaults *faults.Schedule

	// AffinitySpillSamples bounds how deep a replica's backlog may grow
	// before plan-affinity spills to the next-closest replica (default 3/4
	// of the per-replica queue capacity).
	AffinitySpillSamples int

	// ScaleMin enables elastic scaling when in [1, len(Replicas)): the fleet
	// starts with ScaleMin active replicas and activates (parks) one when the
	// mean backlog per active replica stays at or above scaleUpBatches times
	// (at or below scaleDownBatches times) Base's max batch for scaleWindow
	// consecutive routing decisions. Parked replicas drain their queues but
	// receive no new traffic. Zero disables scaling: every replica is always
	// active.
	ScaleMin int
}

// rerouteDelayCycles delays a failed replica's evicted requests before they
// re-enter the router — failure detection plus re-dispatch cost, charged as
// latency (the requests keep their original arrival times).
const rerouteDelayCycles = 50_000

// Elastic scaling thresholds: the mean queued samples per active replica,
// in multiples of Base's max batch, and how many consecutive routing
// decisions must agree before a scale move.
const (
	scaleUpBatches   = 2
	scaleDownBatches = 0.25
	scaleWindow      = 32
)

// maxBatch is the per-replica batch limit: Base's MaxBatch, or its run
// config's batch when unset.
func (c *Config) maxBatch() int {
	if c.Base.MaxBatch > 0 {
		return c.Base.MaxBatch
	}
	return c.Base.RC.Batch
}

// Validate rejects a fleet without replicas, a Policy outside Policies(), a
// negative count field (naming it), a ScaleMin outside [1, len(Replicas)), a
// replica fault schedule the fleet cannot take, and an invalid Base. Each
// replica's hardware config is validated when it is brought up.
func (c Config) Validate() error {
	if len(c.Replicas) == 0 {
		return fmt.Errorf("fleet: no replicas configured")
	}
	if !slices.Contains(Policies(), c.Policy) {
		return fmt.Errorf("fleet: Policy %v is not rr, jsq or affinity", c.Policy)
	}
	if err := errors.Join(
		hw.CheckNonNegative("Workers", c.Workers),
		hw.CheckNonNegative("AffinitySpillSamples", c.AffinitySpillSamples),
		hw.CheckNonNegative("ScaleMin", c.ScaleMin),
	); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if c.ScaleMin != 0 && c.ScaleMin >= len(c.Replicas) {
		return fmt.Errorf("fleet: ScaleMin %d outside [1,%d)", c.ScaleMin, len(c.Replicas))
	}
	if err := validateReplicaFaults(c.ReplicaFaults, len(c.Replicas)); err != nil {
		return err
	}
	return c.Base.Validate()
}

func (c *Config) defaults() {
	if c.AffinitySpillSamples == 0 {
		cap := c.Base.QueueCapSamples
		if cap == 0 {
			cap = 8 * c.maxBatch()
		}
		c.AffinitySpillSamples = cap * 3 / 4
	}
}

// replica is one fleet member: a persistent server plus router-side state.
type replica struct {
	name   string
	srv    *serve.Server
	down   bool // replica-level fault in force
	active bool // receiving new traffic (elastic scaling)
	routed int
}

// request pairs a routed request with its lazily-computed affinity key.
type request struct {
	req serve.Request
	key plancache.ProfileKey
}

// reroute is an evicted request waiting to re-enter the router.
type reroute struct {
	at  int64
	req serve.Request
}

// Fleet is K replicas behind one router, advancing on a shared virtual
// timeline. Not safe for concurrent use: like the single-machine stack, the
// router is a deterministic single-threaded discrete-event loop.
type Fleet struct {
	cfg          Config
	reps         []*replica
	keyer        *plancache.Keyer
	cache        *plancache.Cache // shared across replicas; nil when disabled
	health       *faults.State    // replica-level fault tracker; nil without one
	spillSamples int

	rec         *telemetry.Recorder
	routerTrack telemetry.TrackID

	now int64 // router cursor: the last event time processed
	rr  int   // round-robin cursor

	routed, rerouted     int
	failures, repairs    int
	scaleUps, scaleDowns int
	hiStreak, loStreak   int
	affinityDistSum      float64
	affinityDecisions    int
}

// New validates the config, canonicalizes replica order, and brings up every
// replica (machine built, warmup observed, initial plan loaded), sharing the
// first replica's plan cache, graph and kernel compiler with the rest: a
// kernel any replica compiled is never searched for again. Replicas are brought up in
// sorted-name order so the spec's ordering cannot influence any downstream
// state.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	specs := append([]ReplicaSpec{}, cfg.Replicas...)
	seen := map[string]bool{}
	for i := range specs {
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("r%d", i+1)
		}
		if seen[specs[i].Name] {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", specs[i].Name)
		}
		seen[specs[i].Name] = true
		if specs[i].HW == (hw.Config{}) {
			specs[i].HW = cfg.Base.RC.HW
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })

	f := &Fleet{cfg: cfg, spillSamples: cfg.AffinitySpillSamples}

	// Trace recorders group under "fleet/..." by default; a caller-set
	// Base.RC.TraceName becomes the prefix instead, so e.g. a three-policy
	// comparison can keep its runs apart in one merged trace.
	tracePrefix := "fleet"
	if cfg.Base.RC.TraceName != "" {
		tracePrefix = cfg.Base.RC.TraceName
	}
	var comp *sched.Compiler
	for _, spec := range specs {
		scfg := cfg.Base
		scfg.RC.HW = spec.HW
		if spec.Seed != 0 {
			scfg.RC.Seed = spec.Seed
		}
		if scfg.RC.Trace != nil {
			scfg.RC.TraceName = tracePrefix + "/" + spec.Name
		}
		scfg.PlanCacheOrigin = spec.Name
		if f.cache != nil {
			scfg.SharedPlanCache = f.cache
		}
		if comp != nil {
			scfg.SharedCompiler = comp
		}
		srv, err := serve.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %s: %w", spec.Name, err)
		}
		if len(f.reps) == 0 {
			// The first replica's plan cache (built from Base's settings,
			// or Base.SharedPlanCache) and compiler become every later
			// replica's. Every replica runs the compiler's graph, so the
			// first keyer keys routing for the whole fleet.
			f.cache, f.keyer = srv.PlanCache(), srv.Keyer()
			comp = srv.Setup().Comp
		}
		f.reps = append(f.reps, &replica{name: spec.Name, srv: srv, active: true})
	}
	if !cfg.ReplicaFaults.Empty() {
		f.health = faults.NewState(cfg.ReplicaFaults)
	}
	if cfg.ScaleMin > 0 {
		for i := cfg.ScaleMin; i < len(f.reps); i++ {
			f.reps[i].active = false
		}
	}
	if cfg.Base.RC.Trace != nil {
		f.rec = cfg.Base.RC.Trace.Recorder(tracePrefix + "/router")
		f.routerTrack = f.rec.Track("router")
	}
	return f, nil
}

// validateReplicaFaults checks a replica-level fault schedule: tile kinds
// only (a fleet has no NoC/HBM), indices within the fleet, and at least one
// replica that never fails.
func validateReplicaFaults(s *faults.Schedule, n int) error {
	if s.Empty() {
		return nil
	}
	for i, e := range s.Events {
		if e.Kind != faults.TileFail && e.Kind != faults.TileBrownout {
			return fmt.Errorf("fleet: replica fault event %d has kind %s; only tile kinds (fail, brownout) apply to replicas", i, e.Kind)
		}
	}
	// Reuse the schedule validator with replica indices standing in for
	// tiles: it checks ranges, windows, and that the union of every tile
	// event leaves at least one survivor.
	return s.Validate(hw.Config{TilesX: n, TilesY: 1})
}

// Replicas returns the fleet's replica names in canonical (sorted) order.
func (f *Fleet) Replicas() []string {
	out := make([]string, len(f.reps))
	for i, r := range f.reps {
		out[i] = r.name
	}
	return out
}

// PlanCache returns the shared plan cache (nil when disabled).
func (f *Fleet) PlanCache() *plancache.Cache { return f.cache }

// Server returns the named replica's server (tests and tools).
func (f *Fleet) Server(name string) *serve.Server {
	for _, r := range f.reps {
		if r.name == name {
			return r.srv
		}
	}
	return nil
}

// Serve routes the request stream across the fleet and returns the merged
// report. The router is a discrete-event loop over three event kinds —
// arrivals, delayed re-routes of evicted requests, and replica fault
// boundaries — processed in time order (ties: faults, then re-routes, then
// arrivals). Every live replica is stepped to each event time before the
// event acts, so routing decisions always observe queue depths and plan
// keys as of that instant.
func (f *Fleet) Serve(src serve.Source) (*Report, error) {
	for _, r := range f.reps {
		r.srv.Begin()
	}
	next, more := src.Next()
	var queued []reroute
	const (
		evNone = iota
		evFault
		evReroute
		evArrival
	)
	for {
		if !more && len(queued) == 0 && !f.hasWork() {
			break
		}
		t, ev := int64(0), evNone
		if f.health != nil {
			if nc, ok := f.health.NextChange(f.now); ok {
				t, ev = nc, evFault
			}
		}
		if len(queued) > 0 && (ev == evNone || queued[0].at < t) {
			t, ev = queued[0].at, evReroute
		}
		if more && (ev == evNone || next.Arrival < t) {
			t, ev = next.Arrival, evArrival
		}
		if ev == evNone {
			// No timed event remains: drain every live replica to completion.
			if err := f.drainAll(); err != nil {
				return nil, err
			}
			continue // loop exits at the top once the work is gone
		}
		if err := f.stepAll(t); err != nil {
			return nil, err
		}
		f.now = t
		switch ev {
		case evFault:
			f.applyReplicaFaults(t, &queued)
		case evReroute:
			rr := queued[0]
			queued = queued[1:]
			f.route(rr.req, t, true)
		case evArrival:
			req := next
			next, more = src.Next()
			f.route(req, t, false)
		}
	}
	return f.finish(), nil
}

// hasWork reports whether any replica still holds queued or pending requests.
func (f *Fleet) hasWork() bool {
	for _, r := range f.reps {
		if r.srv.HasWork() {
			return true
		}
	}
	return false
}

// stepAll advances every live replica to time t. Down replicas stay frozen:
// their clocks resume (and catch up) on repair.
func (f *Fleet) stepAll(t int64) error {
	return f.window(func(srv *serve.Server) error { return srv.StepTo(t) })
}

// drainAll serves out every live replica's backlog.
func (f *Fleet) drainAll() error {
	return f.window((*serve.Server).Drain)
}

// window runs step on every live replica in canonical order. The first
// error stops the sweep.
func (f *Fleet) window(step func(*serve.Server) error) error {
	for _, r := range f.reps {
		if r.down {
			continue
		}
		if err := step(r.srv); err != nil {
			return fmt.Errorf("fleet: replica %s: %w", r.name, err)
		}
	}
	return nil
}

// applyReplicaFaults folds the replica-level fault schedule in at time t: a
// replica going down has its backlog evicted into the re-route queue; a
// replica coming back rejoins the eligible set.
func (f *Fleet) applyReplicaFaults(t int64, queued *[]reroute) {
	cap, changed := f.health.At(t)
	if !changed {
		return
	}
	for i, r := range f.reps {
		down := cap.Failed.Failed(i)
		switch {
		case down && !r.down:
			r.down = true
			f.failures++
			evicted := r.srv.EvictQueued()
			for _, req := range evicted {
				*queued = append(*queued, reroute{at: t + rerouteDelayCycles, req: req})
			}
			f.rerouted += len(evicted)
			if f.rec.Enabled() {
				f.rec.Instant(f.routerTrack, "router", "replica-down", t,
					telemetry.S("replica", r.name), telemetry.I("evicted", int64(len(evicted))))
			}
		case !down && r.down:
			r.down = false
			f.repairs++
			if f.rec.Enabled() {
				f.rec.Instant(f.routerTrack, "router", "replica-up", t,
					telemetry.S("replica", r.name))
			}
		}
	}
}

// eligible returns the indices a router decision may pick from: active live
// replicas, falling back to any live replica when scaling has parked them
// all (a fault can empty the active set; traffic must still land somewhere).
func (f *Fleet) eligible() []int {
	var out []int
	for i, r := range f.reps {
		if !r.down && r.active {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		for i, r := range f.reps {
			if !r.down {
				out = append(out, i)
			}
		}
	}
	return out
}

// route dispatches one request: pick a replica by policy, enqueue, trace the
// decision, and feed the elastic controller.
func (f *Fleet) route(req serve.Request, t int64, isReroute bool) {
	elig := f.eligible()
	idx, dist := f.decide(request{req: req}, elig)
	r := f.reps[idx]
	r.srv.Enqueue(req)
	r.routed++
	f.routed++
	if dist >= 0 {
		f.affinityDistSum += dist
		f.affinityDecisions++
	}
	if f.rec.Enabled() {
		args := []telemetry.Arg{
			telemetry.I("request", int64(req.ID)),
			telemetry.S("replica", r.name),
			telemetry.S("policy", f.cfg.Policy.String()),
			telemetry.I("depth", int64(r.srv.QueuedSamples())),
		}
		if dist >= 0 {
			args = append(args, telemetry.F("dist", dist))
		}
		if isReroute {
			args = append(args, telemetry.I("reroute", 1))
		}
		f.rec.Instant(f.routerTrack, "router", "route", t, args...)
	}
	f.elasticObserve(t)
}

// elasticObserve updates the scale controller after a routing decision:
// sustained mean backlog above (below) the thresholds across scaleWindow
// consecutive decisions activates (parks) one replica.
func (f *Fleet) elasticObserve(t int64) {
	if f.cfg.ScaleMin <= 0 {
		return
	}
	total, active := 0, 0
	for _, r := range f.reps {
		if r.active && !r.down {
			total += r.srv.QueuedSamples()
			active++
		}
	}
	if active == 0 {
		return
	}
	depth := float64(total) / float64(active)
	maxBatch := float64(f.cfg.maxBatch())
	switch {
	case depth >= scaleUpBatches*maxBatch:
		f.hiStreak++
		f.loStreak = 0
	case depth <= scaleDownBatches*maxBatch:
		f.loStreak++
		f.hiStreak = 0
	default:
		f.hiStreak, f.loStreak = 0, 0
	}
	if f.hiStreak >= scaleWindow {
		f.hiStreak = 0
		for _, r := range f.reps {
			if !r.active {
				r.active = true
				f.scaleUps++
				if f.rec.Enabled() {
					f.rec.Instant(f.routerTrack, "router", "scale-up", t,
						telemetry.S("replica", r.name), telemetry.F("depth", depth))
				}
				break
			}
		}
	}
	if f.loStreak >= scaleWindow && active > f.cfg.ScaleMin {
		f.loStreak = 0
		// Park the most recently activated replica (highest index, since
		// activation walks canonical order).
		for i := len(f.reps) - 1; i >= 0; i-- {
			if r := f.reps[i]; r.active {
				r.active = false
				f.scaleDowns++
				if f.rec.Enabled() {
					f.rec.Instant(f.routerTrack, "router", "scale-down", t,
						telemetry.S("replica", r.name), telemetry.F("depth", depth))
				}
				break
			}
		}
	}
}
