// Package accel is the transaction-level simulator of the Adyna accelerator
// (Section VI): a multi-tile machine executing a scheduled plan over a
// routing trace. Operators run pipelined on their tile groups in dyn-block
// chunks; the kernel dispatcher selects the best-matching kernel per actual
// dyn value; switches route data across the torus NoC with probe/ack
// synchronization; the profiler feeds frequency statistics back to the
// scheduler; reconfigurations drain the pipeline and reload kernel stores.
//
// The same machine simulates the M-tile baseline and the full-kernel ideal:
// those differ only in the plan's policy bits (worst-case kernels without
// runtime fitting, or a dense kernel store).
package accel

import (
	"fmt"
	"math"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// chunksPerJob is the pipelining granularity inside one (batch, segment)
// job: entities stream their work in this many dyn-block chunks so that
// downstream stages start before upstream ones finish.
const chunksPerJob = 8

// drainPenaltyCycles is the fixed control cost of a reconfiguration beyond
// the natural pipeline drain (barrier broadcast, controller reload).
const drainPenaltyCycles = 2000

// Options tune machine behaviour for specific experiments.
type Options struct {
	// OnlineSchedLatencyCycles models the real-time scheduling alternative
	// of Figure 12: this many cycles of host scheduling latency are paid
	// before every dynamic entity invocation.
	OnlineSchedLatencyCycles int64
}

// Stats accumulates everything the evaluation figures need.
type Stats struct {
	Cycles           int64 // total machine cycles consumed by executed batches
	Batches          int   // batches executed (Run windows plus stream submissions)
	MACs             int64 // issued MACs, including padding/alignment waste
	UsefulMACs       int64 // MACs strictly required by the actual dyn values
	SRAMBytes        int64 // bytes moved through tile SRAM
	HBMBytes         int64 // bytes transferred over the HBM interface
	NoCByteHops      int64 // byte-hops injected into the on-chip network
	PEBusyTileCycles int64 // sum over invocations of cycles x tiles occupied
	ReconfigCycles   int64 // cycles spent in partition reconfiguration stalls
	Reconfigs        int   // partition reconfigurations performed
	KernelSelections int64 // per-invocation kernel-variant selections made
}

// Machine simulates one accelerator executing one dynamic operator graph.
type Machine struct {
	cfg  hw.Config
	g    *graph.Graph
	opts Options

	env  *sim.Env
	hbm  *mem.HBM
	noc  *noc.NoC
	prof *profiler.Profiler

	plan *sched.Plan
	// dags holds each segment's compiled template, keyed by segment index.
	dags map[int]*segDAG
	// planCfg snapshots the config the current plan was validated against.
	// Plan regions index that config's live-tile enumeration; if faults strike
	// after the load, the current m.cfg mask diverges from planCfg's and the
	// frozen plan runs degraded (see prepareJob) until a new plan is loaded.
	// tiles is planCfg's live→physical table: the templates' tiles and routes
	// come from it, never from the live m.cfg.
	planCfg hw.Config
	tiles   hw.TileMap
	// batchDone records, for every batch of every window, Run or streamed,
	// the simulated time its final-segment job completed and the window
	// start time — the machine's per-batch latency record.
	batchDone []BatchLatency
	// computeOps and niNames are derived from the graph once at construction:
	// the per-batch statistics loop and every entity spawn would otherwise
	// re-derive them (a slice per batch, a string concatenation per job).
	computeOps []graph.OpID
	niNames    []string

	// free pools the machine's finished jobs: shells that survive plan
	// loads, segment boundaries and windows, rewired to whichever template
	// they are next taken for (see take). jobsBuilt counts the shells built
	// over the machine's life.
	free      []*job
	jobsBuilt int

	// optIdxBuf is prepareJob's option-choice scratch, indexed like the
	// segment template and reused across calls (prepareJob never blocks, so
	// one suffices).
	optIdxBuf []int
	// freeUnits is the unit array of the last window that drained, which
	// the next window resolves into when it is large enough.
	freeUnits []int

	// rec, when enabled, records per-tile kernel spans, batch spans, and
	// plan loads (NoC and HBM spans are recorded by the substrates). nil —
	// the default — disables recording with zero hot-path cost.
	rec        *telemetry.Recorder
	tileTracks []telemetry.TrackID // lazily registered, -1 = unregistered
	planTrack  telemetry.TrackID
	batchTrack telemetry.TrackID

	stats Stats
}

// New builds a machine for cfg and g.
func New(cfg hw.Config, g *graph.Graph, opts Options) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	niNames := make([]string, len(g.Ops))
	for i, op := range g.Ops {
		niNames[i] = op.Name + "/ni"
	}
	return &Machine{
		cfg:        cfg,
		planCfg:    cfg,
		g:          g,
		opts:       opts,
		env:        env,
		hbm:        mem.New(env, cfg),
		noc:        noc.New(env, cfg),
		prof:       profiler.New(g),
		computeOps: g.ComputeOps(),
		niNames:    niNames,
	}, nil
}

// Profiler exposes the on-chip profiler (the scheduler reads it between
// windows, as the hardware would report over the host link).
func (m *Machine) Profiler() *profiler.Profiler { return m.prof }

// SetRecorder attaches a telemetry recorder to the machine and its NoC/HBM
// substrates: subsequent execution records per-tile kernel-execution spans,
// NoC transfer spans, HBM fetch spans, batch-lifecycle spans, and plan
// loads, all on the simulated clock. Call it right after New, before any
// plan is loaded. A nil recorder (the default) keeps recording disabled at
// zero cost on the hot path.
func (m *Machine) SetRecorder(rec *telemetry.Recorder) {
	m.rec = rec
	if !rec.Enabled() {
		return
	}
	m.batchTrack = rec.Track("batches")
	m.planTrack = rec.Track("plan")
	m.tileTracks = make([]telemetry.TrackID, m.cfg.Tiles())
	for i := range m.tileTracks {
		m.tileTracks[i] = -1
	}
	m.noc.SetRecorder(rec)
	m.hbm.SetRecorder(rec)
}

// tileTrack returns the telemetry track of a physical tile, registering it
// on first use so untouched tiles don't clutter the trace. Only called with
// recording enabled.
func (m *Machine) tileTrack(tile int) telemetry.TrackID {
	if m.tileTracks[tile] < 0 {
		m.tileTracks[tile] = m.rec.Track(fmt.Sprintf("tile %d", tile))
	}
	return m.tileTracks[tile]
}

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.env.Now() }

// AdvanceTo moves the simulated clock forward to t without doing any work.
// The online serving layer uses it to model idle gaps between request
// arrivals on the same clock the machine executes on; times at or before the
// current clock are a no-op.
func (m *Machine) AdvanceTo(t sim.Time) {
	if t <= m.env.Now() {
		return
	}
	m.env.At(t, func() {})
	m.env.Run()
}

// LoadPlan installs a plan. The first load is free (initial configuration);
// subsequent loads model a reconfiguration: the pipeline has already drained
// (Run drains), kernel stores are re-loaded through HBM, and a fixed control
// penalty applies. Like the hardware setting up its probe/ack routes at
// reconfiguration, the load compiles every segment's template — entity
// tiles, NoC routes and pipeline-stage tokens, placed on the current
// config — so executing the plan only books them. The previous plan's
// templates are dropped — unless the plan is the one already loaded, on the
// config it was compiled for: its templates would compile the same, so they
// stay. The reconfiguration is charged either way. The machine's pooled
// jobs survive the load either way: take rewires them to the new templates.
func (m *Machine) LoadPlan(p *sched.Plan) error {
	if err := p.Validate(m.cfg, m.g); err != nil {
		return err
	}
	dags, tiles := m.dags, m.tiles
	if p != m.plan || m.cfg != m.planCfg {
		tiles = m.cfg.TileMap()
		dags = make(map[int]*segDAG, len(p.Segments))
		for _, seg := range p.Segments {
			d, err := compileSegment(m.env, m.g, seg, tiles, m.noc)
			if err != nil {
				return err
			}
			dags[seg.Index] = d
		}
	}
	if m.plan != nil {
		var kernelBytes int64
		for _, seg := range p.Segments {
			for _, op := range seg.Entities {
				for _, o := range op.Options {
					kernelBytes += int64(o.KernelCount() * m.cfg.KernelMetaBytes)
				}
			}
		}
		start := m.env.Now()
		done := m.hbm.Reserve(kernelBytes) + drainPenaltyCycles
		m.env.At(done, func() {})
		m.env.Run()
		m.stats.ReconfigCycles += int64(m.env.Now() - start)
		m.stats.Reconfigs++
		if m.rec.Enabled() {
			m.rec.Span(m.planTrack, "plan", "reconfig", int64(start), int64(m.env.Now()),
				telemetry.I("kernel_bytes", kernelBytes),
				telemetry.I("segments", int64(len(p.Segments))))
		}
	} else if m.rec.Enabled() {
		m.rec.Instant(m.planTrack, "plan", "load", int64(m.env.Now()),
			telemetry.I("segments", int64(len(p.Segments))))
	}
	m.plan = p
	m.dags = dags
	m.planCfg = m.cfg
	m.tiles = tiles
	return nil
}

// SetCapability applies the chip's live fault state between batches: the
// failed-tile mask is replaced, and the NoC/HBM substrates re-rate to the
// given fractions of their healthy bandwidth (1 restores full speed). The
// arguments are absolute: callers pass the fully composed state, e.g. the
// fields of faults.Capability.Apply(base). The loaded plan keeps running —
// entities whose tiles failed migrate their work onto the region's survivors
// at a proportional slowdown — until the caller loads a plan scheduled for
// the reduced chip. Fails if the mask would leave no surviving tiles.
func (m *Machine) SetCapability(failed hw.TileMask, nocFactor, hbmFactor float64) error {
	cfg := m.cfg
	cfg.FailedTiles = failed
	cfg.NoCDerate = normFactor(nocFactor)
	cfg.HBMDerate = normFactor(hbmFactor)
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.cfg = cfg
	m.noc.Derate(nocFactor)
	m.hbm.Derate(hbmFactor)
	return nil
}

// HBMBytesPerCycle returns the HBM model's live aggregate bandwidth.
func (m *Machine) HBMBytesPerCycle() float64 { return m.hbm.BytesPerCycle() }

// normFactor maps "healthy" factors onto the hw.Config zero value so a chip
// restored to full capacity compares equal to one that never degraded.
func normFactor(f float64) float64 {
	if f <= 0 || f >= 1 {
		return 0
	}
	return f
}

// survivingTiles counts how many of a plan region's physical tiles are still
// in service under the current fault mask.
func (m *Machine) survivingTiles(region [2]int) int {
	n := 0
	for t := region[0]; t < region[0]+region[1]; t++ {
		if !m.cfg.TileFailed(m.tiles.Physical(t)) {
			n++
		}
	}
	return n
}

// Stats returns the accumulated statistics. HBM and NoC counters are read
// from the substrate models so every byte they moved is included.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Cycles = int64(m.env.Now())
	s.HBMBytes = m.hbm.TotalBytes()
	s.NoCByteHops = m.noc.ByteHops()
	return s
}

// PEUtilization returns issued-MAC utilization of the PE array so far
// (Figure 10, left).
func (m *Machine) PEUtilization() float64 {
	s := m.Stats()
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.MACs) / (float64(m.cfg.TotalPEs()) * float64(s.Cycles))
}

// HBMUtilization returns achieved memory bandwidth over peak (Figure 10,
// right).
func (m *Machine) HBMUtilization() float64 {
	s := m.Stats()
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.HBMBytes) / (m.cfg.HBMBytesPerCycle() * float64(s.Cycles))
}

// jobEntity is one entity within a job. Each entity runs as two processes
// per job, the compute process (compute) and its network-interface sender
// (send). Its sender queue is built with its slot of the job shell and its
// processes with the shell's entity array (see wire), which also points it
// at a template entity; its entState is reset for every batch the job
// carries (prepareJob).
type jobEntity struct {
	tpl     *dagEntity // the entity in the segment template
	job     *job
	inputs  []*jobEdge
	outputs []*jobEdge
	group   *sim.Store // temporal-sharing token (nil when ungrouped)
	sendQ   *sim.Store // chunks finished by compute, waiting for the sender
	proc    *sim.Proc  // runs compute
	sender  *sim.Proc  // runs send
	entState
}

// entState is an entity's per-batch state: its kernel choice and cost, and
// where each of its two processes resumes.
type entState struct {
	opt     *sched.AllocOption
	eval    costmodel.Eval
	units   int
	kstart  sim.Time // when the first chunk began gathering inputs
	hbmDone sim.Time // the current chunk's HBM streaming completion
	pc      int      // compute state
	c, in   int      // compute: current chunk and input edge
	sendPC  int      // sender state
	sendC   int      // sender: current chunk
	out     int      // sender: current output edge
	xfer    noc.Transfer
}

// jobEdge is one producer-consumer link within a job: its per-batch payload
// and the template edge that carries it.
type jobEdge struct {
	bytes int64
	store *sim.Store
	route *dagEdge
}

// BatchLatency is one batch's completion record.
type BatchLatency struct {
	// Start is when the batch's window began executing; Done is when its
	// last segment finished.
	Start, Done sim.Time
}

// Cycles returns the batch's window-relative latency.
func (l BatchLatency) Cycles() int64 { return int64(l.Done - l.Start) }

// Latencies returns the per-batch completion records accumulated so far.
// The copy is pre-sized to exactly the record count.
func (m *Machine) Latencies() []BatchLatency {
	out := make([]BatchLatency, len(m.batchDone))
	copy(out, m.batchDone)
	return out
}

// job is one (batch, segment) unit of pipelined execution. A job is a shell
// pooled by its machine — entity and edge arrays, edge stores, sender
// queues, group tokens, processes — wired to the segment template it was
// last taken for, and it carries many batches of many plans: see take,
// prepareJob and release for its lifecycle.
type job struct {
	m     *Machine
	dag   *segDAG // the template the shell is wired to
	ents  []jobEntity
	edges []jobEdge
	// ports backs the entities' input and output slices: the first half
	// holds every edge in consumer order, the second in producer order.
	ports       []*jobEdge
	groups      []*sim.Store // temporal-sharing tokens, one per template group
	done        *sim.Signal
	remaining   int
	weightReady sim.Time
	notBefore   sim.Time
	// final marks a job of the plan's last segment: when it finishes, its
	// batch completes, and the batch's latency is recorded from start.
	final bool
	start sim.Time
}

// inflightJobs bounds how many same-segment jobs (batches) may be in flight
// at once; it must exceed the deepest pipeline so batch-to-batch streaming
// reaches steady state.
const inflightJobs = 64

// Run processes the batches through the current plan and blocks until the
// pipeline drains. Statistics and the profiler accumulate; call LoadPlan
// with a fresh schedule between Run windows to model periodic
// reconfiguration.
//
// Execution is segment-major: the whole batch window streams through
// segment 0 (operator pipelining across batches, intermediates staged in
// HBM at the segment boundary), then the chip reconfigures to segment 1, and
// so on — the standard way multi-tile accelerators amortize segment weights
// over a batch window.
func (m *Machine) Run(batches []workload.Batch) error {
	tk, err := m.submit(batches)
	if err != nil {
		return err
	}
	m.env.Run()
	if tk.err == nil && m.env.Live() > 0 {
		return m.blockedErr("deadlock", "after drain")
	}
	return tk.err
}

// submit observes a batch window and spawns the driver that feeds it
// through the loaded plan, without advancing the clock. Routing is resolved
// and the profiler fed up front, in batch order (the hardware profiler is
// insensitive to the segment-major execution order); the window's unit
// counts share one array, the last drained window's when it is large
// enough. The returned ticket resolves when the window's last segment
// drains. Run and StreamSubmit both execute through it.
func (m *Machine) submit(batches []workload.Batch) (*StreamTicket, error) {
	if m.plan == nil {
		return nil, fmt.Errorf("accel: no plan loaded")
	}
	d := &runDriver{m: m, segs: m.plan.Segments, batches: make([]windowBatch, len(batches))}
	n := len(m.g.Ops)
	d.units, m.freeUnits = m.freeUnits, nil
	if cap(d.units) < len(batches)*n {
		d.units = make([]int, len(batches)*n)
	}
	for i, b := range batches {
		units, err := m.g.AssignUnits(d.units[i*n:(i+1)*n], b.Units, b.Routing)
		if err != nil {
			return nil, err
		}
		if err := m.prof.ObserveBatch(units, b.Routing, b.Density); err != nil {
			return nil, err
		}
		d.batches[i] = windowBatch{units: units, density: b.Density}
		m.stats.Batches++
		m.accountUsefulMACs(units, b.Density)
	}
	d.tk = StreamTicket{start: m.env.Now(), done: sim.NewSignal(m.env)}
	m.env.Spawn("driver", d.step)
	return &d.tk, nil
}

// blockedErr is the stall diagnostic every drain reports: how many
// processes are still live and the names of the first 8 blocked ones.
func (m *Machine) blockedErr(kind, when string) error {
	blocked := m.env.BlockedProcs()
	if len(blocked) > 8 {
		blocked = blocked[:8]
	}
	return fmt.Errorf("accel: %s: %d processes blocked %s (e.g. %v)", kind, m.env.Live(), when, blocked)
}

// runDriver is the process that feeds a batch window through the plan,
// segment-major: it spawns every batch's job of one segment, keeping at most
// inflightJobs of them in flight, and drains the segment before the next
// one's tiles are reconfigured. Each segment's weights are fetched while the
// previous segment computes. At each segment boundary it releases every job
// of the drained segment to the machine's pool, and it resolves the
// window's ticket when the last segment drains.
type runDriver struct {
	m           *Machine
	segs        []*sched.Segment
	batches     []windowBatch
	units       []int // the window's unit counts, batch-major
	tk          StreamTicket
	pc          int
	si, i       int // current segment and batch
	k           int // jobs of the open segment still to drain
	weightReady sim.Time
	notBefore   sim.Time
}

// windowBatch is one batch of a driver's window: its resolved units
// (indexed by OpID) and density, and its job in the open segment.
type windowBatch struct {
	units   []int
	density float64
	job     *job
}

// Driver states.
const (
	drvSegment = iota // prefetch the next segment's weights
	drvDrain          // drain the open segment and open the next one
	drvBatch          // spawn the next batch's job
)

func (d *runDriver) step(p *sim.Proc) bool {
	m := d.m
	for {
		switch d.pc {
		case drvSegment:
			// Prefetch this segment's weights, then drain the previous
			// segment before its tiles are reconfigured.
			if d.si < len(d.segs) {
				d.weightReady = m.hbm.Reserve(d.segs[d.si].WeightBytes)
			}
			if d.si > 0 {
				d.k = len(d.batches)
			}
			d.pc = drvDrain
		case drvDrain:
			// Wait on the segment's last job first, as a drain always has,
			// then on every earlier one. Those have finished by then in
			// practice, so the drain still ends with the last job, and no
			// job is released while it runs.
			for ; d.k > 0; d.k-- {
				if !d.batches[d.k-1].job.done.Await(p) {
					return false
				}
			}
			if d.si > 0 {
				// Every job of the drained segment finished, and nothing
				// else holds them: later batches may reuse them.
				for i := range d.batches {
					d.batches[i].job.release()
				}
			}
			if d.si == len(d.segs) {
				m.freeUnits = d.units
				d.tk.resolve(p.Now(), nil)
				return true
			}
			d.notBefore = p.Now()
			d.i = 0
			d.pc = drvBatch
		case drvBatch:
			if d.i == len(d.batches) {
				d.si++
				d.pc = drvSegment
				continue
			}
			// prepareJob never blocks, so the machine's per-job scratch
			// slices stay single-writer even with several drivers
			// interleaving on the event queue.
			b := &d.batches[d.i]
			j, err := m.prepareJob(d.segs[d.si], b.units, b.density)
			if err != nil {
				d.tk.resolve(p.Now(), err)
				return true
			}
			b.job = j
			d.i++
			j.weightReady = d.weightReady
			j.notBefore = d.notBefore
			j.final = d.si == len(d.segs)-1
			j.start = d.tk.start
			m.spawnJob(j)
			if d.i > inflightJobs && !d.batches[d.i-1-inflightJobs].job.done.Await(p) {
				return false
			}
		}
	}
}

// accountUsefulMACs adds one batch's strictly required MACs to the stats:
// density-aware operators only need the (quantized) density-scaled share of
// their dense work, everything else needs all of it.
func (m *Machine) accountUsefulMACs(units []int, density float64) {
	d := costmodel.QuantizeDensity(density)
	for _, id := range m.computeOps {
		op := m.g.Op(id)
		macs := op.MACsPerUnit * int64(units[id])
		if op.DensityAware && d < 1 {
			macs = int64(math.Ceil(d * float64(macs)))
		}
		m.stats.UsefulMACs += macs
	}
}

// effUnits is the effective dyn value an entity pays for: without runtime
// fitting the hardware pays the padded worst case in both compute and data
// movement.
func (m *Machine) effUnits(units []int, id graph.OpID) int {
	if m.plan.Policy.RuntimeFitting {
		return units[id]
	}
	return m.g.Op(id).MaxUnits
}

// take returns a job for segment template d: the most recently released
// job of the machine's pool that is still wired to d, else the most
// recently released one, rewired to d, else a new shell. The driver
// releases every job of a segment when the segment drains, so a machine
// builds only as many shells as its widest window keeps in flight, whatever
// plans it loads; streamed batches, which alternate segments, mostly find
// a shell already wired.
func (m *Machine) take(d *segDAG) *job {
	n := len(m.free)
	if n == 0 {
		m.jobsBuilt++
		j := &job{m: m, done: sim.NewSignal(m.env)}
		j.wire(d)
		return j
	}
	k := n - 1
	for i := k; i >= 0; i-- {
		if m.free[i].dag == d {
			k = i
			break
		}
	}
	j := m.free[k]
	m.free[k] = m.free[n-1]
	m.free = m.free[:n-1]
	if j.dag != d {
		j.wire(d)
	}
	return j
}

// wire points a shell at segment template d. The entity and edge arrays
// grow to d's size: each new entity slot gets its sender queue, each new
// edge slot its store, each new group its token, and a grown entity array
// its compute and sender processes. Then every entity takes its
// template entity, its group token, its operator's process names and its
// input and output edges. Entities and edges live in two contiguous arrays;
// the per-entity input/output slices are windows of one shared array of
// pointers into the edge array.
func (j *job) wire(d *segDAG) {
	m, env := j.m, j.m.env
	j.dag = d
	if n := len(d.ents); n > cap(j.ents) {
		// A process's step is a method value bound to its entity's address,
		// so every slot of the new array gets new processes; the sender
		// queues carry over.
		old, ents := j.ents[:cap(j.ents)], make([]jobEntity, n)
		for i := range ents {
			je := &ents[i]
			je.job = j
			if i < len(old) {
				je.sendQ = old[i].sendQ
			} else {
				je.sendQ = sim.NewStore(env, 0)
			}
			je.proc = env.NewProc("", je.compute)
			je.sender = env.NewProc("", je.send)
		}
		j.ents = ents
	}
	j.ents = j.ents[:len(d.ents)]
	if n := d.edges; n > cap(j.edges) {
		edges := make([]jobEdge, n)
		copy(edges, j.edges[:cap(j.edges)])
		for i := cap(j.edges); i < n; i++ {
			edges[i].store = sim.NewStore(env, chunksPerJob/2)
		}
		j.edges = edges
	}
	j.edges = j.edges[:d.edges]
	if n := 2 * d.edges; n > cap(j.ports) {
		j.ports = make([]*jobEdge, n)
	}
	ins, outs := j.ports[:d.edges], j.ports[d.edges:2*d.edges]
	for len(j.groups) < d.groups {
		gs := sim.NewStore(env, 1)
		gs.TryPut()
		j.groups = append(j.groups, gs)
	}
	for i := range d.ents {
		de := &d.ents[i]
		je := &j.ents[i]
		je.tpl, je.group = de, nil
		if de.group >= 0 {
			je.group = j.groups[de.group]
		}
		je.proc.SetName(m.g.Op(de.lead).Name)
		je.sender.SetName(m.niNames[de.lead])
		je.outputs = outs[de.outAt : de.outAt : de.outAt+de.outs]
	}
	k := 0
	for i := range d.ents {
		de := &d.ents[i]
		j.ents[i].inputs = ins[k : k+len(de.prods)]
		for p := range de.prods {
			e := &j.edges[k]
			e.route = &de.prods[p]
			ins[k] = e
			k++
			producer := &j.ents[e.route.from]
			producer.outputs = append(producer.outputs, e)
		}
	}
}

// release returns a finished job to the machine's pool. Every store
// and signal of a finished job is at rest: edge stores and sender queues
// empty, group tokens back in place, nobody waiting. A job that is not would
// hand a stale chunk or a missing token to the next batch that takes it, so
// release panics instead.
func (j *job) release() {
	leak := func(what string, i int) {
		panic(fmt.Sprintf("accel: released job of segment %d leaks: %s of %s",
			j.dag.seg.Index, what, j.m.g.Op(j.ents[i].tpl.lead).Name))
	}
	if j.done.Waiters() > 0 {
		panic(fmt.Sprintf("accel: released job of segment %d has done waiters", j.dag.seg.Index))
	}
	for i := range j.ents {
		je := &j.ents[i]
		if je.sendQ.Len() > 0 || je.sendQ.Waiters() > 0 {
			leak("sender queue", i)
		}
		if g := je.group; g != nil && (g.Len() != 1 || g.Waiters() > 0) {
			leak("group token", i)
		}
		for _, e := range je.inputs {
			if e.store.Len() > 0 || e.store.Waiters() > 0 {
				leak("input edge", i)
			}
		}
	}
	j.m.free = append(j.m.free, j)
}

// prepareJob readies a job to carry one batch through seg: it takes a job
// for the segment's template and computes per-entity dyn values,
// tile-sharing option choices, cost evaluations and edge payloads. It runs
// once per (batch, segment) on a driver process, and in steady state it
// allocates nothing: the job's shell is reused, and the option-choice
// scratch is the machine's, indexed like the template.
func (m *Machine) prepareJob(seg *sched.Segment, units []int, density float64) (*job, error) {
	d := m.dags[seg.Index]
	j := m.take(d)
	if err := m.resetJob(j, units, density); err != nil {
		j.release()
		return nil, err
	}
	return j, nil
}

// resetJob writes one batch's state into a taken job.
func (m *Machine) resetJob(j *job, units []int, density float64) error {
	d := j.dag
	j.done.Reset()
	// Each entity contributes two completions: its compute process and its
	// network-interface sender.
	j.remaining = 2 * len(j.ents)

	// Tile-sharing option choice per pair (Section V-B): the pair leader
	// picks the ratio minimizing the slower partner.
	if cap(m.optIdxBuf) < len(d.ents) {
		m.optIdxBuf = make([]int, len(d.ents))
	}
	optIdx := m.optIdxBuf[:len(d.ents)]
	clear(optIdx)
	for i := range d.ents {
		de := &d.ents[i]
		if de.partner == nil {
			continue
		}
		op, partner := de.plan, de.partner
		best, bestScore := 0, int64(-1)
		for k := range op.Options {
			ea, err := m.plan.EvaluateEntityDensity(m.cfg, m.g, op, op.Options[k], m.effUnits(units, de.lead), density)
			if err != nil {
				return err
			}
			eb, err := m.plan.EvaluateEntityDensity(m.cfg, m.g, partner, partner.Options[k], m.effUnits(units, op.Partner), density)
			if err != nil {
				return err
			}
			score := ea.Cycles
			if eb.Cycles > score {
				score = eb.Cycles
			}
			if bestScore < 0 || score < bestScore {
				best, bestScore = k, score
			}
		}
		optIdx[i] = best
		if de.partnerIdx >= 0 {
			optIdx[de.partnerIdx] = best
		}
	}

	for i := range d.ents {
		de := &d.ents[i]
		op := de.plan
		k := optIdx[i] // 0 default
		if k >= len(op.Options) {
			k = 0
		}
		opt := op.Options[k]
		v := m.effUnits(units, de.lead)
		ev, err := m.plan.EvaluateEntityDensity(m.cfg, m.g, op, opt, v, density)
		if err != nil {
			return err
		}
		// Frozen-plan degradation: tiles that failed after this plan was
		// loaded produce no work, so the entity's chunks fold onto the
		// region's survivors at a proportional slowdown. A fully failed
		// region limps along on one stand-in tile (the work has to complete
		// somewhere for the pipeline to drain).
		if m.cfg.FailedTiles != m.planCfg.FailedTiles {
			if s := m.survivingTiles(op.Region); s < op.Region[1] {
				if s < 1 {
					s = 1
				}
				ev.Cycles = (ev.Cycles*int64(op.Region[1]) + int64(s) - 1) / int64(s)
			}
		}
		j.ents[i].entState = entState{opt: opt, eval: ev, units: v}
	}

	// The edges' per-batch payload sizes.
	for i := range d.ents {
		de := &d.ents[i]
		cOp := m.g.Op(de.lead)
		for _, e := range j.ents[i].inputs {
			switch pe := e.route; {
			case pe.kind == edgeMask:
				e.bytes = 64 // routing mask metadata packet
			case pe.viaMerge:
				// Each branch tail sends its own units' worth.
				e.bytes = cOp.InBytesPerUnit * int64(m.effUnits(units, d.ents[pe.from].lead))
			default:
				e.bytes = cOp.InBytesPerUnit * int64(m.effUnits(units, de.lead))
			}
		}
	}
	return nil
}

// spawnJob starts each entity's compute process; each starts its own
// network-interface sender. They synchronize through edge stores, group
// tokens, and the per-entity pipeline-stage token.
func (m *Machine) spawnJob(j *job) {
	for i := range j.ents {
		m.env.Start(j.ents[i].proc)
	}
}

// finish counts one of the job's processes out, firing the job's done
// signal after the last. A final-segment job first records its batch's
// completion, so the records follow the completion order.
func (j *job) finish() {
	j.remaining--
	if j.remaining > 0 {
		return
	}
	if j.final {
		m := j.m
		m.batchDone = append(m.batchDone, BatchLatency{Start: j.start, Done: m.env.Now()})
		if m.rec.Enabled() {
			m.rec.Span(m.batchTrack, "batch", "batch", int64(j.start), int64(m.env.Now()),
				telemetry.I("index", int64(len(m.batchDone)-1)))
		}
	}
	j.done.Fire()
}

// chunkOf splits total across the job's chunks, giving the last chunk the
// remainder.
func chunkOf(total int64, c int) int64 {
	share := total / chunksPerJob
	if c == chunksPerJob-1 {
		return total - share*int64(chunksPerJob-1)
	}
	return share
}

// Compute process states.
const (
	entAcquire = iota // take the pipeline-stage token
	entOnline         // segment order and weights are satisfied
	entBegin          // start the sender and the first chunk
	entGather         // gather the current chunk's inputs
	entCompute        // take the group token and compute the chunk
	entRelease        // the chunk's compute finished: release the group token
	entStream         // wait for the chunk's HBM streaming
	entHandOff        // hand the finished chunk to the sender
)

// compute is the entity's compute process for one job: it streams the
// job's chunks through the PE array, handing each finished chunk to the
// sender.
func (je *jobEntity) compute(p *sim.Proc) bool {
	j := je.job
	m := j.m
	for {
		switch je.pc {
		case entAcquire:
			// Serialize this pipeline stage across in-flight batches: the
			// token is granted in spawn (batch) order.
			if !je.tpl.tok.Get(p) {
				return false
			}
			// Segment ordering and weight availability.
			start := j.notBefore
			if j.weightReady > start {
				start = j.weightReady
			}
			je.pc = entOnline
			if start > p.Now() {
				p.Wait(start - p.Now())
				return false
			}
		case entOnline:
			// Real-time scheduling alternative: pay the host scheduling
			// latency before every dynamic operator invocation (Figure 12).
			je.pc = entBegin
			if je.tpl.dynamic && je.units > 0 && m.opts.OnlineSchedLatencyCycles > 0 {
				p.Wait(sim.Time(m.opts.OnlineSchedLatencyCycles))
				return false
			}
		case entBegin:
			if je.units > 0 {
				m.stats.MACs += je.eval.MACs
				m.stats.SRAMBytes += je.eval.SRAMBytes
				m.stats.PEBusyTileCycles += je.eval.Cycles * int64(je.opt.Tiles)
				m.stats.KernelSelections++
			}
			// The network interface runs as its own engine (Figure 7): it
			// forwards finished chunks — probe/ack handshake, then the
			// payload over the NoC — while the PE array already computes
			// the next chunk. The pipeline-stage token is released when
			// compute finishes; delivery completion is tracked by the job.
			m.env.Start(je.sender)
			je.kstart = p.Now()
			je.pc = entGather
		case entGather:
			if je.c == chunksPerJob {
				je.recordKernel()
				je.tpl.tok.TryPut()
				j.finish()
				return true
			}
			// Gather this chunk from every producer.
			for ; je.in < len(je.inputs); je.in++ {
				if !je.inputs[je.in].store.Get(p) {
					return false
				}
			}
			je.in = 0
			// Stream boundary inputs and weights from HBM, overlapped with
			// the chunk's compute up to the bandwidth limit.
			je.hbmDone = 0
			if je.tpl.readHBM {
				if n := chunkOf(je.eval.InBytes, je.c); n > 0 {
					je.hbmDone = m.hbm.Reserve(n)
				}
			}
			if n := chunkOf(je.eval.HBMWeightBytes, je.c); n > 0 {
				if t := m.hbm.Reserve(n); t > je.hbmDone {
					je.hbmDone = t
				}
			}
			je.pc = entStream
			if chunkOf(je.eval.Cycles, je.c) > 0 {
				je.pc = entCompute
			}
		case entCompute:
			// Compute, serializing with temporal group partners.
			if je.group != nil {
				if !je.group.Get(p) {
					return false
				}
			}
			je.pc = entRelease
			p.Wait(sim.Time(chunkOf(je.eval.Cycles, je.c)))
			return false
		case entRelease:
			if je.group != nil {
				je.group.TryPut()
			}
			je.pc = entStream
		case entStream:
			je.pc = entHandOff
			if je.hbmDone > p.Now() {
				p.Wait(je.hbmDone - p.Now())
				return false
			}
		case entHandOff:
			je.sendQ.TryPut()
			je.c++
			je.pc = entGather
		}
	}
}

// recordKernel records one kernel-execution span per (batch, segment,
// entity), on the track of the region's lead tile: input gather, HBM
// streaming and compute for all chunks of this job.
func (je *jobEntity) recordKernel() {
	m := je.job.m
	if !m.rec.Enabled() {
		return
	}
	m.rec.Span(m.tileTrack(je.tpl.tile), "kernel", m.g.Op(je.tpl.lead).Name,
		int64(je.kstart), int64(m.env.Now()),
		telemetry.I("units", int64(je.units)),
		telemetry.I("tiles", int64(je.opt.Tiles)),
		telemetry.I("segment", int64(je.job.dag.seg.Index)))
}

// Sender process states.
const (
	niChunk   = iota // take the next finished chunk
	niEdge           // forward the chunk on the current output edge
	niInject         // the probe handshake finished: inject the payload
	niRoute          // injection finished: book the route
	niDeliver        // the payload arrived
	niPut            // hand the chunk to the consumer's edge store
)

// send is the entity's network-interface sender for one job: for every
// chunk compute finishes, it forwards the chunk's share of each output edge
// over the NoC and drains boundary outputs to HBM.
func (je *jobEntity) send(p *sim.Proc) bool {
	j := je.job
	m := j.m
	for {
		switch je.sendPC {
		case niChunk:
			if je.sendC == chunksPerJob {
				j.finish()
				return true
			}
			if !je.sendQ.Get(p) {
				return false
			}
			je.out = 0
			je.sendPC = niEdge
		case niEdge:
			if je.out == len(je.outputs) {
				// Boundary outputs drain to HBM (non-blocking reservation:
				// the write-back DMA competes for bandwidth, not for the
				// PEs).
				if je.tpl.writeHBM {
					if n := chunkOf(je.eval.OutBytes, je.sendC); n > 0 {
						m.hbm.ReserveWrite(n)
					}
				}
				je.sendC++
				je.sendPC = niChunk
				continue
			}
			e := je.outputs[je.out]
			je.sendPC = niPut
			if chunkOf(e.bytes, je.sendC) > 0 {
				je.sendPC = niInject
				p.Wait(m.noc.Probe(&e.route.wire))
				return false
			}
		case niInject:
			e := je.outputs[je.out]
			je.sendPC = niPut
			if injected, ok := m.noc.Inject(&je.xfer, &e.route.wire, chunkOf(e.bytes, je.sendC), e.route.ways); ok {
				je.sendPC = niRoute
				p.Wait(injected - p.Now())
				return false
			}
		case niRoute:
			je.sendPC = niDeliver
			if done := m.noc.Route(&je.xfer); done > p.Now() {
				p.Wait(done - p.Now())
				return false
			}
		case niDeliver:
			m.noc.Deliver(&je.xfer)
			je.sendPC = niPut
		case niPut:
			if !je.outputs[je.out].store.Put(p) {
				return false
			}
			je.out++
			je.sendPC = niEdge
		}
	}
}
