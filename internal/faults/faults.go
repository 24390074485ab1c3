// Package faults is the deterministic fault injector of the degraded-mode
// serving story: a seeded, virtual-time schedule of hardware fault events —
// permanent tile failures, transient tile brown-outs with a repair time, NoC
// link degradation, and HBM bandwidth loss — together with the state machine
// that folds the schedule into the chip's live Capability at any instant.
//
// The layers above consume it as follows: accel.Machine applies a Capability
// between batches (failed tiles produce no work, so their entities' work
// migrates onto the surviving tiles of the region at a proportional
// slowdown; degraded links and stacks re-rate the bandwidth servers), sched
// re-plans over the surviving tiles via hw.Config's capability mask, and
// serve.Server's health detector triggers an off-hot-path re-schedule when
// the capability changes. Everything is driven by the machine's own clock,
// so fault injection is as deterministic as the simulation itself.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/hw"
)

// Kind enumerates fault event kinds.
type Kind int

const (
	// TileFail permanently removes the listed tiles from service at At.
	TileFail Kind = iota
	// TileBrownout removes the listed tiles during [At, Until) — a transient
	// power/thermal event that repairs itself.
	TileBrownout
	// NoCDegrade multiplies the NoC bandwidth by Factor during [At, Until)
	// (Until 0 means forever; overlapping windows take the worst factor).
	NoCDegrade
	// HBMDegrade multiplies the HBM bandwidth by Factor during [At, Until),
	// with the same window semantics as NoCDegrade.
	HBMDegrade
)

var kindNames = map[Kind]string{
	TileFail:     "fail",
	TileBrownout: "brownout",
	NoCDegrade:   "noc",
	HBMDegrade:   "hbm",
}

// String returns the event-kind name used by the spec syntax.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON writes the kind as its spec name.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("faults: unknown kind %d", int(k))
	}
	return []byte(`"` + s + `"`), nil
}

// UnmarshalJSON reads a kind from its spec name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	for kk, name := range kindNames {
		if name == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("faults: unknown event kind %q", s)
}

// Event is one fault in virtual time (machine cycles).
type Event struct {
	// At is when the fault strikes.
	At int64 `json:"at"`
	// Kind selects what breaks.
	Kind Kind `json:"kind"`
	// Tiles lists the affected physical tiles (TileFail / TileBrownout).
	Tiles []int `json:"tiles,omitempty"`
	// Until ends the fault window for transient kinds (brown-outs and
	// degradations). Zero means no repair: brown-outs require Until > At,
	// degradations treat zero as "for the rest of the run".
	Until int64 `json:"until,omitempty"`
	// Factor is the bandwidth multiplier of degradation kinds, in (0, 1].
	Factor float64 `json:"factor,omitempty"`
}

// active reports whether the event is in force at time t.
func (e Event) active(t int64) bool {
	if t < e.At {
		return false
	}
	switch e.Kind {
	case TileFail:
		return true
	default:
		return e.Until == 0 || t < e.Until
	}
}

// Schedule is a fault schedule: events ordered by strike time.
type Schedule struct {
	// Events are the scheduled faults, ordered by strike time At.
	Events []Event `json:"events"`
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// normalize sorts events by strike time (stable, so same-time events keep
// their declaration order).
func (s *Schedule) normalize() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
}

// Validate rejects schedules the chip cannot survive or the injector cannot
// interpret: everything check rejects, out-of-range tiles, and — the
// cumulative check — a union of all tile events (overlapping windows
// included) that would leave zero surviving tiles, which would make
// re-planning onto the survivors impossible.
func (s *Schedule) Validate(cfg hw.Config) error {
	if s == nil {
		return nil
	}
	if err := s.check(); err != nil {
		return err
	}
	union := hw.TileMask("")
	for i, e := range s.Events {
		if e.Kind != TileFail && e.Kind != TileBrownout {
			continue
		}
		for _, t := range e.Tiles {
			if t < 0 || t >= cfg.Tiles() {
				return fmt.Errorf("faults: event %d tile %d outside the %d-tile chip", i, t, cfg.Tiles())
			}
		}
		union = union.Or(hw.NewTileMask(e.Tiles...))
	}
	if union.Count() >= cfg.Tiles() {
		return fmt.Errorf("faults: schedule can fail all %d tiles at once; at least one must survive", cfg.Tiles())
	}
	return nil
}

// check rejects what no chip can take: negative times, inverted windows,
// tile events without tiles or with a factor, and bandwidth factors outside
// (0,1] (NaN included). ParseSpec runs it, so a schedule it returns can
// fail Validate only for the chip it meets.
func (s *Schedule) check() error {
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d strikes at negative time %d", i, e.At)
		}
		switch e.Kind {
		case TileFail, TileBrownout:
			if len(e.Tiles) == 0 {
				return fmt.Errorf("faults: %s event %d lists no tiles", e.Kind, i)
			}
			if e.Kind == TileBrownout && e.Until <= e.At {
				return fmt.Errorf("faults: brownout event %d repairs at %d, not after strike %d", i, e.Until, e.At)
			}
			if e.Factor != 0 {
				return fmt.Errorf("faults: %s event %d sets factor %v; only noc and hbm events take one", e.Kind, i, e.Factor)
			}
		case NoCDegrade, HBMDegrade:
			if !(e.Factor > 0 && e.Factor <= 1) { // NaN fails both comparisons
				return fmt.Errorf("faults: event %d factor %v outside (0,1]", i, e.Factor)
			}
			if e.Until != 0 && e.Until <= e.At {
				return fmt.Errorf("faults: event %d window [%d,%d) is empty", i, e.At, e.Until)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Capability is the chip's live resource state at one instant.
type Capability struct {
	// Failed masks tiles currently out of service.
	Failed hw.TileMask
	// NoC and HBM are the live bandwidth multipliers (1 = healthy).
	NoC, HBM float64
}

// Healthy returns the full-capacity capability.
func Healthy() Capability { return Capability{NoC: 1, HBM: 1} }

// Degraded reports whether any resource is below full capacity.
func (c Capability) Degraded() bool {
	return !c.Failed.Empty() || c.NoC < 1 || c.HBM < 1
}

// Apply returns cfg with the capability composed onto it: the fault mask is
// ORed into cfg's failed tiles, and the bandwidth factors multiply cfg's own
// derates. A chip that starts masked or derated — a tenant's partition, a
// slow replica — keeps that base state under every fault, and a healthy
// capability returns cfg unchanged. Every layer that plans for, simulates or
// pre-solves a degraded chip derives its config through this one rule.
func (c Capability) Apply(cfg hw.Config) hw.Config {
	cfg.FailedTiles = cfg.FailedTiles.Or(c.Failed)
	cfg.NoCDerate = compose(cfg.NoCDerate, c.NoC)
	cfg.HBMDerate = compose(cfg.HBMDerate, c.HBM)
	return cfg
}

// compose multiplies a config derate by a capability factor. Both treat
// values outside (0,1) as healthy, and a healthy product maps back to the
// config's zero value, which keeps pristine configs comparable.
func compose(derate, factor float64) float64 {
	f := unit(derate) * unit(factor)
	if f >= 1 {
		return 0
	}
	return f
}

func unit(f float64) float64 {
	if f <= 0 || f > 1 {
		return 1
	}
	return f
}

// State folds a schedule into the capability timeline. It is a pure function
// of (schedule, time) — At recomputes from scratch — so replaying the same
// schedule against the same clock sequence is deterministic.
type State struct {
	sched *Schedule
	cur   Capability
}

// NewState returns the tracker, starting healthy. The schedule is normalized
// (sorted by strike time) in place.
func NewState(s *Schedule) *State {
	if s != nil {
		s.normalize()
	}
	return &State{sched: s, cur: Healthy()}
}

// Capability returns the state most recently computed by At.
func (st *State) Capability() Capability { return st.cur }

// At advances the tracker to time now and returns the chip's capability,
// plus whether it changed since the previous call. Time may move in either
// direction (brown-outs repair), but serving drives it monotonically.
func (st *State) At(now int64) (Capability, bool) {
	cap := Healthy()
	if st.sched != nil {
		var failed []int
		for _, e := range st.sched.Events {
			if !e.active(now) {
				continue
			}
			switch e.Kind {
			case TileFail, TileBrownout:
				failed = append(failed, e.Tiles...)
			case NoCDegrade:
				if e.Factor < cap.NoC {
					cap.NoC = e.Factor
				}
			case HBMDegrade:
				if e.Factor < cap.HBM {
					cap.HBM = e.Factor
				}
			}
		}
		if len(failed) > 0 {
			cap.Failed = hw.NewTileMask(failed...)
		}
	}
	changed := cap != st.cur
	st.cur = cap
	return cap, changed
}

// NextChange returns the earliest event boundary (strike or repair) strictly
// after now, or ok=false when the capability can no longer change. The
// serving layer uses it to bound idle jumps so repairs are observed even
// when no requests arrive.
func (st *State) NextChange(now int64) (int64, bool) {
	next := int64(-1)
	consider := func(t int64) {
		if t > now && (next < 0 || t < next) {
			next = t
		}
	}
	if st.sched != nil {
		for _, e := range st.sched.Events {
			consider(e.At)
			if e.Kind != TileFail && e.Until > 0 {
				consider(e.Until)
			}
		}
	}
	return next, next >= 0
}
