// Package telemetry is the simulation's observability layer: a low-overhead
// event recorder threaded through the accelerator machine and the serving
// front-end, emitting Chrome-trace/Perfetto JSON (the `trace_event` format)
// so a run's per-tile kernel spans, NoC transfers, HBM fetches, plan loads,
// batch lifecycles and drift decisions can be inspected on a timeline in
// https://ui.perfetto.dev (or chrome://tracing).
//
// Two properties are load-bearing:
//
//   - Disabled recording is free. Every Recorder method is nil-safe — a nil
//     *Recorder no-ops — and performs zero heap allocations on the nil path,
//     so instrumented hot paths keep their PR 2 performance byte-for-byte
//     when no trace is requested. Call sites that build Args must guard with
//     Enabled() (a variadic call with arguments allocates its slice at the
//     call site, before the receiver's nil check can run); argless calls may
//     stay unguarded.
//
//   - Traces are deterministic. Timestamps are simulated cycles (virtual
//     time), never wall clock, and the writer orders events by (timestamp,
//     record order) and recorders by name — the same seed and configuration
//     produce byte-identical trace files at any GOMAXPROCS, which is what
//     makes traces golden-testable and diffable across runs.
//
// Timestamps are written to the `ts`/`dur` fields in raw cycle units; the
// viewer labels them µs, so read "1 µs" on the timeline as "1 cycle" (1 ns
// of simulated time at the default 1 GHz clock).
package telemetry

import "sync"

// TrackID identifies one named horizontal timeline of a Recorder (rendered
// as a Perfetto "thread"). The zero value is the recorder's first registered
// track, so an unset TrackID on a nil recorder is harmless.
type TrackID int32

// argKind discriminates the value held by an Arg.
type argKind uint8

const (
	argInt argKind = iota
	argFloat
	argString
)

// Arg is one key/value annotation attached to an event, shown in the
// viewer's detail pane. Construct with I, F, S, or B. Args are plain values —
// building one never allocates — but passing any to a variadic recorder
// method allocates the argument slice, so guard such call sites with
// Recorder.Enabled.
type Arg struct {
	// Key is the annotation name shown in the viewer.
	Key  string
	str  string
	num  int64
	f    float64
	kind argKind
}

// I returns an integer-valued Arg.
func I(key string, v int64) Arg { return Arg{Key: key, num: v, kind: argInt} }

// F returns a float-valued Arg.
func F(key string, v float64) Arg { return Arg{Key: key, f: v, kind: argFloat} }

// S returns a string-valued Arg.
func S(key, v string) Arg { return Arg{Key: key, str: v, kind: argString} }

// B returns a decision flag as an integer-valued Arg: 1 for true, 0 for
// false.
func B(key string, v bool) Arg {
	if v {
		return I(key, 1)
	}
	return I(key, 0)
}

// Phase bytes of the trace_event format used by this package.
const (
	phaseComplete = 'X' // a span: ts + dur
	phaseInstant  = 'i' // a point event
	phaseCounter  = 'C' // a sampled counter value
)

// Event is one recorded trace event. Events are exposed for tests and
// tooling; production consumers should use WriteJSON.
type Event struct {
	// Name is the event label shown on the timeline slice.
	Name string
	// Cat is the event category (kernel, noc, hbm, plan, serve, drift, fault).
	Cat string
	// Phase is the trace_event phase byte ('X' span, 'i' instant, 'C' counter).
	Phase byte
	// Track is the timeline the event belongs to.
	Track TrackID
	// TS is the event start in simulated cycles; Dur its length (spans only).
	TS, Dur int64
	// Args are the event's key/value annotations, in record order.
	Args []Arg
}

// Recorder collects the trace events of one single-threaded simulation — one
// machine plus the serving loop above it. It is NOT safe for concurrent use:
// a discrete-event simulation only ever executes one process at a time, and
// each parallel-runner worker must own a distinct Recorder (see Trace).
// The zero value records into itself; a nil *Recorder discards everything.
type Recorder struct {
	name   string
	tracks []string
	byName map[string]TrackID
	events []Event
}

// NewRecorder returns an enabled recorder. name becomes the Perfetto process
// name grouping the recorder's tracks.
func NewRecorder(name string) *Recorder {
	return &Recorder{name: name, byName: map[string]TrackID{}}
}

// Enabled reports whether events are being kept. It is the guard hot paths
// use before building Args: a nil receiver returns false.
func (r *Recorder) Enabled() bool { return r != nil }

// Name returns the recorder's name ("" for a nil recorder).
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Track registers (or finds) the named timeline and returns its id. Tracks
// render in registration order. A nil recorder returns 0.
func (r *Recorder) Track(name string) TrackID {
	if r == nil {
		return 0
	}
	if id, ok := r.byName[name]; ok {
		return id
	}
	id := TrackID(len(r.tracks))
	r.tracks = append(r.tracks, name)
	if r.byName == nil {
		r.byName = map[string]TrackID{}
	}
	r.byName[name] = id
	return id
}

// Span records a complete event covering [start, end] cycles on a track.
// end < start is clamped to a zero-length span rather than corrupting the
// file. No-op on a nil recorder; argless calls are allocation-free when
// disabled.
func (r *Recorder) Span(track TrackID, cat, name string, start, end int64, args ...Arg) {
	if r == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Phase: phaseComplete,
		Track: track, TS: start, Dur: dur, Args: args,
	})
}

// Instant records a point event at ts cycles on a track. No-op on a nil
// recorder; argless calls are allocation-free when disabled.
func (r *Recorder) Instant(track TrackID, cat, name string, ts int64, args ...Arg) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Phase: phaseInstant,
		Track: track, TS: ts, Args: args,
	})
}

// Counter records a sampled counter value at ts cycles, rendered by the
// viewer as a stepped area chart. No-op on a nil recorder, allocation-free
// when disabled.
func (r *Recorder) Counter(track TrackID, cat, name string, ts, value int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Phase: phaseCounter,
		Track: track, TS: ts, Dur: value,
	})
}

// Len reports the number of recorded events (0 for a nil recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns the recorded events in record order (tests and tooling).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Trace is a whole trace file: a set of Recorders, one per independent
// simulation, each rendered as its own Perfetto process. Recorder creation
// is mutex-protected so parallel-runner workers can each claim their own
// recorder; the recorders themselves stay single-owner. WriteJSON orders
// recorders by name, so as long as names are unique (core derives them from
// design/model/TraceName) the merged file is byte-identical regardless of
// creation order or worker count. A nil *Trace hands out nil Recorders,
// keeping every downstream path on its disabled fast path.
type Trace struct {
	mu   sync.Mutex
	recs []*Recorder
}

// NewTrace returns an empty trace container.
func NewTrace() *Trace { return &Trace{} }

// Recorder creates and registers a new named recorder. On a nil trace it
// returns nil — the universal "tracing off" value.
func (t *Trace) Recorder(name string) *Recorder {
	if t == nil {
		return nil
	}
	r := NewRecorder(name)
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// Recorders returns the registered recorders sorted by name (the emission
// order). Recorders with equal names keep their registration order, which is
// only deterministic under a serial runner — give recorders unique names.
func (t *Trace) Recorders() []*Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]*Recorder, len(t.recs))
	copy(out, t.recs)
	t.mu.Unlock()
	sortRecordersByName(out)
	return out
}

func sortRecordersByName(rs []*Recorder) {
	// Insertion sort keeps equal-name registration order without pulling in
	// sort.SliceStable's reflection for a list that is almost always tiny.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].name < rs[j-1].name; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
