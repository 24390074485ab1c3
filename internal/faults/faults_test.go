package faults

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
)

func chip() hw.Config { return hw.Default() }

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("fail@2e6:tiles=0-3+7; brownout@1e6:tiles=10,repair=5e5 ;noc@1e6:factor=0.5;hbm@3000000:factor=0.25,until=4e6")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(s.Events))
	}
	// normalize sorts by strike time: brownout@1e6, noc@1e6, fail@2e6, hbm@3e6.
	e := s.Events[0]
	if e.Kind != TileBrownout || e.At != 1_000_000 || e.Until != 1_500_000 || len(e.Tiles) != 1 || e.Tiles[0] != 10 {
		t.Fatalf("brownout parsed wrong: %+v", e)
	}
	if e := s.Events[1]; e.Kind != NoCDegrade || e.Factor != 0.5 || e.Until != 0 {
		t.Fatalf("noc parsed wrong: %+v", e)
	}
	if e := s.Events[2]; e.Kind != TileFail || e.At != 2_000_000 ||
		len(e.Tiles) != 5 || e.Tiles[4] != 7 {
		t.Fatalf("fail parsed wrong: %+v", e)
	}
	if e := s.Events[3]; e.Kind != HBMDegrade || e.At != 3_000_000 || e.Until != 4_000_000 || e.Factor != 0.25 {
		t.Fatalf("hbm parsed wrong: %+v", e)
	}
	if err := s.Validate(chip()); err != nil {
		t.Fatalf("parsed schedule invalid: %v", err)
	}
	// Cycle counts share the tenant spec's k/M/G suffixes.
	s, err = ParseSpec("fail@20M:tiles=0;brownout@1.5M:tiles=2,repair=250k")
	if err != nil {
		t.Fatal(err)
	}
	if e := s.Events[0]; e.At != 1_500_000 || e.Until != 1_750_000 {
		t.Fatalf("suffixed brownout parsed wrong: %+v", e)
	}
	if e := s.Events[1]; e.At != 20_000_000 {
		t.Fatalf("suffixed fail parsed wrong: %+v", e)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"  ;  ",
		"melt@1e6",
		"fail:tiles=0",
		"fail@abc:tiles=0",
		"fail@1e6:tiles=3-1",
		"fail@1e6:tiles=x",
		"fail@1e6:color=red",
		"noc@1e6:factor",
		"brownout@1e6:tiles=0,repair=oops",
		"fail@20m:tiles=0",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s, err := ParseSpec("fail@2e6:tiles=0-35;brownout@1e6:tiles=40-47,repair=5e5;noc@1e6:factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(s.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(s.Events))
	}
	for i := range s.Events {
		a, b := s.Events[i], got.Events[i]
		if a.At != b.At || a.Kind != b.Kind || a.Until != b.Until || a.Factor != b.Factor ||
			len(a.Tiles) != len(b.Tiles) {
			t.Fatalf("event %d changed in round trip: %+v vs %+v", i, a, b)
		}
	}
	if !strings.Contains(buf.String(), `"kind": "fail"`) {
		t.Fatalf("kinds not serialized by name:\n%s", buf.String())
	}
	if _, err := Load(strings.NewReader(`{"events":[{"at":1,"kind":"melt"}]}`)); err == nil {
		t.Fatal("unknown kind accepted on load")
	}
}

func TestValidateRejections(t *testing.T) {
	cfg := chip()
	cases := map[string]Schedule{
		"negative time":   {Events: []Event{{At: -1, Kind: TileFail, Tiles: []int{0}}}},
		"no tiles":        {Events: []Event{{At: 1, Kind: TileFail}}},
		"tile oob":        {Events: []Event{{At: 1, Kind: TileFail, Tiles: []int{cfg.Tiles()}}}},
		"brownout window": {Events: []Event{{At: 5, Kind: TileBrownout, Tiles: []int{0}, Until: 5}}},
		"factor zero":     {Events: []Event{{At: 1, Kind: NoCDegrade, Factor: 0}}},
		"factor over":     {Events: []Event{{At: 1, Kind: HBMDegrade, Factor: 1.5}}},
		"factor NaN":      {Events: []Event{{At: 1, Kind: HBMDegrade, Factor: math.NaN()}}},
		"factor +Inf":     {Events: []Event{{At: 1, Kind: NoCDegrade, Factor: math.Inf(1)}}},
		"factor on tiles": {Events: []Event{{At: 1, Kind: TileFail, Tiles: []int{0}, Factor: math.NaN()}}},
		"empty window":    {Events: []Event{{At: 9, Kind: NoCDegrade, Factor: 0.5, Until: 4}}},
		"unknown kind":    {Events: []Event{{At: 1, Kind: Kind(99)}}},
		"kills the chip": {Events: []Event{
			{At: 1, Kind: TileFail, Tiles: tileRange(0, cfg.Tiles()/2)},
			{At: 2, Kind: TileBrownout, Tiles: tileRange(cfg.Tiles()/2, cfg.Tiles()/2), Until: 9},
		}},
	}
	for name, s := range cases {
		s := s
		if err := s.Validate(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var nilSched *Schedule
	if err := nilSched.Validate(cfg); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
	if !nilSched.Empty() {
		t.Error("nil schedule not empty")
	}
}

func tileRange(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// TestStateTimeline walks the capability through strikes, overlap, and
// repair: overlapping degrade windows take the worst factor, brown-outs heal,
// permanent failures do not.
func TestStateTimeline(t *testing.T) {
	st := NewState(&Schedule{Events: []Event{
		{At: 100, Kind: TileFail, Tiles: []int{0, 1}},
		{At: 200, Kind: TileBrownout, Tiles: []int{5}, Until: 400},
		{At: 300, Kind: HBMDegrade, Factor: 0.5, Until: 600},
		{At: 350, Kind: HBMDegrade, Factor: 0.8, Until: 500},
	}})
	if cap := st.Capability(); cap != Healthy() || cap.Degraded() {
		t.Fatalf("initial capability %+v not healthy", cap)
	}
	cap, changed := st.At(50)
	if changed || cap.Degraded() {
		t.Fatalf("capability %+v degraded before first strike", cap)
	}
	cap, changed = st.At(250)
	if !changed || cap.Failed.Count() != 3 || !cap.Failed.Failed(5) {
		t.Fatalf("at 250: %+v, want tiles {0,1,5} failed", cap)
	}
	// Both HBM windows active: the worse factor wins.
	cap, _ = st.At(360)
	if cap.HBM != 0.5 {
		t.Fatalf("overlapping HBM windows gave factor %v, want the min 0.5", cap.HBM)
	}
	// Brown-out repaired, narrow window closed, wide one still open.
	cap, changed = st.At(550)
	if !changed || cap.Failed.Count() != 2 || cap.Failed.Failed(5) || cap.HBM != 0.5 {
		t.Fatalf("at 550: %+v, want brownout repaired, HBM still 0.5", cap)
	}
	// Everything transient over; the permanent failures remain.
	cap, _ = st.At(10_000)
	if cap.Failed.Count() != 2 || cap.HBM != 1 || cap.NoC != 1 {
		t.Fatalf("at 10000: %+v, want only permanent failures", cap)
	}
}

func TestNextChange(t *testing.T) {
	st := NewState(&Schedule{Events: []Event{
		{At: 100, Kind: TileFail, Tiles: []int{0}},
		{At: 200, Kind: TileBrownout, Tiles: []int{5}, Until: 400},
	}})
	want := []int64{100, 200, 400}
	now := int64(0)
	for _, w := range want {
		nc, ok := st.NextChange(now)
		if !ok || nc != w {
			t.Fatalf("NextChange(%d) = %d,%v, want %d", now, nc, ok, w)
		}
		now = nc
	}
	if _, ok := st.NextChange(now); ok {
		t.Fatalf("NextChange past the last boundary reported more changes")
	}
}

func TestCapabilityApply(t *testing.T) {
	cfg := chip()
	healthy := Healthy().Apply(cfg)
	if healthy != cfg {
		t.Fatalf("healthy capability changed the config")
	}
	cap := Capability{Failed: hw.NewTileMask(0, 1), NoC: 0.5, HBM: 1}
	got := cap.Apply(cfg)
	if got.LiveTiles() != cfg.Tiles()-2 || got.NoCDerate != 0.5 || got.HBMDerate != 0 {
		t.Fatalf("Apply gave live=%d noc=%v hbm=%v", got.LiveTiles(), got.NoCDerate, got.HBMDerate)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("applied config invalid: %v", err)
	}

	// A masked, derated base (a tenant partition on a slow chip) keeps its
	// own state: masks union, derates multiply, and a healthy capability
	// leaves it untouched.
	base := cfg
	base.FailedTiles = hw.RangeTileMask(100, 44)
	base.HBMDerate = 0.5
	base.NoCDerate = 0.8
	if Healthy().Apply(base) != base {
		t.Fatalf("healthy capability changed a derated base")
	}
	got = Capability{Failed: hw.NewTileMask(0, 101), NoC: 0.5, HBM: 0.5}.Apply(base)
	if want := hw.RangeTileMask(100, 44).Or(hw.NewTileMask(0)); got.FailedTiles != want {
		t.Fatalf("Apply mask = %v, want %v", got.FailedTiles, want)
	}
	if got.HBMDerate != 0.25 || got.NoCDerate != 0.4 {
		t.Fatalf("Apply derates noc=%v hbm=%v, want 0.4 and 0.25", got.NoCDerate, got.HBMDerate)
	}
	// The zero Capability is as healthy as Healthy().
	if (Capability{}).Apply(base) != base {
		t.Fatalf("zero capability changed a derated base")
	}
}

// TestRandomSchedulesValid: every generated chaos schedule must be valid for
// the chip it was generated for, and identical for identical seeds.
func TestRandomSchedulesValid(t *testing.T) {
	cfg := chip()
	for seed := int64(0); seed < 100; seed++ {
		s := Random(cfg, seed, 10_000_000, 8)
		if err := s.Validate(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	a, b := Random(cfg, 42, 10_000_000, 8), Random(cfg, 42, 10_000_000, 8)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.At != eb.At || ea.Kind != eb.Kind || ea.Until != eb.Until || ea.Factor != eb.Factor {
			t.Fatalf("same seed, different event %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{TileFail: "fail", TileBrownout: "brownout", NoCDegrade: "noc", HBMDegrade: "hbm"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(9).String(); got != "kind(9)" {
		t.Errorf("unknown kind string %q", got)
	}
	if _, err := Kind(9).MarshalJSON(); err == nil {
		t.Error("unknown kind marshalled")
	}
}
