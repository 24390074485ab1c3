package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/hw"
	"repro/internal/workload"
)

// Spec syntax — the compact command-line form of a fault schedule:
//
//	event ( ";" event )*
//	event = kind "@" cycles [ ":" param ( "," param )* ]
//	kind  = "fail" | "brownout" | "noc" | "hbm"
//	param = "tiles=" range ( "+" range )*   range = N | N "-" M
//	      | "repair=" cycles               (brownout: Until = At + repair)
//	      | "until=" cycles
//	      | "factor=" F
//
// Cycle counts take hw.ParseCycles syntax: integers, scientific notation
// ("2e6") and k/M/G suffixes ("20M"). Examples:
//
//	fail@20M:tiles=0-35                       lose the first quarter of a 12x12 chip
//	brownout@1e6:tiles=40-47,repair=5e5       8 tiles brown out for 500k cycles
//	noc@1e6:factor=0.5;hbm@3e6:factor=0.25    halve the NoC, quarter the HBM

// ParseSpec parses the command-line fault syntax above. It rejects every
// event no chip can take (see Schedule.Validate); the chip's own checks wait
// for Validate.
func ParseSpec(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, ev)
	}
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("faults: empty spec %q", spec)
	}
	s.normalize()
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseEvent(part string) (Event, error) {
	head, params, _ := strings.Cut(part, ":")
	kindStr, atStr, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q needs kind@cycles", part)
	}
	var ev Event
	found := false
	for k, name := range kindNames {
		if name == strings.TrimSpace(kindStr) {
			ev.Kind = k
			found = true
		}
	}
	if !found {
		return Event{}, fmt.Errorf("faults: unknown event kind %q", kindStr)
	}
	at, err := hw.ParseCycles(atStr)
	if err != nil {
		return Event{}, fmt.Errorf("faults: event %q strike time: %w", part, err)
	}
	ev.At = at
	var repair int64
	if params != "" {
		for _, p := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok {
				return Event{}, fmt.Errorf("faults: parameter %q needs key=value", p)
			}
			switch key {
			case "tiles":
				ev.Tiles, err = parseTiles(val)
			case "repair":
				repair, err = hw.ParseCycles(val)
			case "until":
				ev.Until, err = hw.ParseCycles(val)
			case "factor":
				ev.Factor, err = strconv.ParseFloat(val, 64)
			default:
				return Event{}, fmt.Errorf("faults: unknown parameter %q", key)
			}
			if err != nil {
				return Event{}, fmt.Errorf("faults: parameter %q: %w", p, err)
			}
		}
	}
	if repair > 0 {
		ev.Until = ev.At + repair
	}
	return ev, nil
}

// maxEventTiles bounds the tile list of one event, far above any chip, so a
// range like "0-2000000000" errors instead of allocating gigabytes.
const maxEventTiles = 1 << 16

// parseTiles reads "0-35+40+50-52" into an index list.
func parseTiles(s string) ([]int, error) {
	var out []int
	for _, r := range strings.Split(s, "+") {
		lo, hi, isRange := strings.Cut(r, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return nil, fmt.Errorf("bad tile %q", r)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
				return nil, fmt.Errorf("bad tile range %q", r)
			}
		}
		if b < a {
			return nil, fmt.Errorf("inverted tile range %q", r)
		}
		if b-a >= maxEventTiles-len(out) {
			return nil, fmt.Errorf("tile list %q names more than %d tiles", s, maxEventTiles)
		}
		for t := a; t <= b; t++ {
			out = append(out, t)
		}
	}
	return out, nil
}

// Load reads a JSON-encoded schedule (the format Save writes).
func Load(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: decoding schedule: %w", err)
	}
	s.normalize()
	return &s, nil
}

// Save writes the schedule as JSON.
func (s *Schedule) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Random generates a seeded chaos schedule of n events over [0, horizon):
// a mix of permanent tile failures, brown-outs, and NoC/HBM degradation
// windows. The cumulative tile-event union is capped at half the chip so a
// valid re-plan always exists; the result passes Validate(cfg) by
// construction. The same (cfg, seed, horizon, n) always yields the same
// schedule.
func Random(cfg hw.Config, seed int64, horizon int64, n int) *Schedule {
	src := workload.NewSource(seed)
	s := &Schedule{}
	budget := cfg.Tiles() / 2
	union := hw.TileMask("")
	for i := 0; i < n; i++ {
		at := int64(src.Float64() * float64(horizon))
		switch src.Intn(10) {
		case 0, 1, 2: // permanent tile failure
			tiles := randTiles(src, cfg, union, budget)
			if len(tiles) == 0 {
				continue
			}
			union = union.Or(hw.NewTileMask(tiles...))
			s.Events = append(s.Events, Event{At: at, Kind: TileFail, Tiles: tiles})
		case 3, 4, 5: // brown-out with repair
			tiles := randTiles(src, cfg, union, budget)
			if len(tiles) == 0 {
				continue
			}
			union = union.Or(hw.NewTileMask(tiles...))
			repair := 1 + int64(src.Float64()*float64(horizon)/4)
			s.Events = append(s.Events, Event{At: at, Kind: TileBrownout, Tiles: tiles, Until: at + repair})
		case 6, 7: // NoC degradation window
			s.Events = append(s.Events, Event{
				At: at, Kind: NoCDegrade,
				Factor: 0.3 + 0.6*src.Float64(),
				Until:  at + 1 + int64(src.Float64()*float64(horizon)/2),
			})
		default: // HBM degradation window
			s.Events = append(s.Events, Event{
				At: at, Kind: HBMDegrade,
				Factor: 0.3 + 0.6*src.Float64(),
				Until:  at + 1 + int64(src.Float64()*float64(horizon)/2),
			})
		}
	}
	s.normalize()
	return s
}

// randTiles picks a random contiguous tile run whose union with the already
// chosen tiles stays within budget.
func randTiles(src *workload.Source, cfg hw.Config, union hw.TileMask, budget int) []int {
	span := 1 + src.Intn(cfg.Tiles()/8+1)
	start := src.Intn(cfg.Tiles())
	var out []int
	for t := start; t < start+span && t < cfg.Tiles(); t++ {
		if union.Failed(t) {
			out = append(out, t) // already budgeted
			continue
		}
		if budget-union.Count()-newCount(out, union) <= 0 {
			break
		}
		out = append(out, t)
	}
	return out
}

// newCount counts tiles in out not already in union.
func newCount(out []int, union hw.TileMask) int {
	n := 0
	for _, t := range out {
		if !union.Failed(t) {
			n++
		}
	}
	return n
}
