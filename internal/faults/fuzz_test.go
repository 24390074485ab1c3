package faults

import (
	"math"
	"testing"

	"repro/internal/hw"
)

// FuzzFaultSpec checks the fault-spec parser's contract on arbitrary
// strings: ParseSpec never panics, and a spec it accepts passes Validate on
// a chip that holds every tile it names plus one survivor, carrying only
// usable bandwidth factors — every noc/hbm factor finite and in (0,1], and
// no factor on a tile event. The checked-in corpus holds the out-of-domain
// values (NaN, infinite and negative factors, negative strike times) that
// every plain go test replays.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"fail@20M:tiles=0-35",
		"brownout@1e6:tiles=40-47,repair=5e5",
		"noc@1e6:factor=0.5;hbm@3e6:factor=0.25,until=4e6",
		"hbm@10:factor=NaN",
		"noc@10:factor=+Inf",
		"hbm@10:factor=-2",
		"fail@1:tiles=0,factor=0.5",
		"fail@1:tiles=0-2000000000",
		";;",
		"brownout@5:tiles=3-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		top := -1
		for _, e := range s.Events {
			for _, tile := range e.Tiles {
				top = max(top, tile)
			}
		}
		if top >= maxEventTiles {
			return // no chip that large is modelled
		}
		if err := s.Validate(hw.Config{TilesX: top + 2, TilesY: 1}); err != nil {
			t.Fatalf("accepted spec %q fails Validate on a %d-tile chip: %v", spec, top+2, err)
		}
		for i, e := range s.Events {
			switch e.Kind {
			case NoCDegrade, HBMDegrade:
				if math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) || e.Factor <= 0 || e.Factor > 1 {
					t.Fatalf("accepted spec %q: event %d factor %v outside (0,1]", spec, i, e.Factor)
				}
			default:
				if e.Factor != 0 {
					t.Fatalf("accepted spec %q: %s event %d carries factor %v", spec, e.Kind, i, e.Factor)
				}
			}
		}
	})
}
