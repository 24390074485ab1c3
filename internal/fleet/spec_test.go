package fleet

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/serve"
)

func TestParseSpec(t *testing.T) {
	base := hw.Default()
	cases := []struct {
		spec    string
		names   []string
		wantErr string
	}{
		{spec: "big,small", names: []string{"big", "small"}},
		{spec: "big:tiles=12x12,small:tiles=4x4:noc=0.8", names: []string{"big", "small"}},
		{spec: "edge:count=3", names: []string{"edge-1", "edge-2", "edge-3"}},
		{spec: "a:seed=42", names: []string{"a"}},
		{spec: "a:hbm=1", names: []string{"a"}},
		{spec: "", wantErr: "empty replica spec"},
		{spec: "a,a", wantErr: "duplicate replica name"},
		{spec: "x:count=2,x-1", wantErr: "duplicate replica name"},
		{spec: "a:tiles=0x4", wantErr: "must be positive"},
		{spec: "a:tiles=4x-1", wantErr: "must be positive"},
		{spec: "a:tiles=nope", wantErr: "not WxH"},
		{spec: "a:tiles=4294967297x4294967296", wantErr: "overflows"},
		{spec: "a:noc=0", wantErr: "outside (0,1]"},
		{spec: "a:noc=1.5", wantErr: "outside (0,1]"},
		{spec: "a:hbm=-2", wantErr: "outside (0,1]"},
		{spec: "a:noc=NaN", wantErr: "outside (0,1]"},
		{spec: "a:hbm=NaN", wantErr: "outside (0,1]"},
		{spec: "a:seed=0", wantErr: "positive integer"},
		{spec: "a:seed=x", wantErr: "positive integer"},
		{spec: "a:count=0", wantErr: "1..64"},
		{spec: "a:count=100", wantErr: "1..64"},
		{spec: "a:bogus=1", wantErr: "unknown option"},
		{spec: "a:tiles", wantErr: "not key=value"},
		{spec: ",", wantErr: "empty name"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec, base)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseSpec(%q) error %v, want containing %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		var names []string
		for _, r := range got {
			names = append(names, r.Name)
		}
		if strings.Join(names, ",") != strings.Join(c.names, ",") {
			t.Errorf("ParseSpec(%q) names %v, want %v", c.spec, names, c.names)
		}
	}
}

func TestParseSpecOverrides(t *testing.T) {
	base := hw.Default()
	got, err := ParseSpec("big:tiles=12x10:noc=0.5:hbm=0.25:seed=9", base)
	if err != nil {
		t.Fatal(err)
	}
	r := got[0]
	if r.HW.TilesX != 12 || r.HW.TilesY != 10 {
		t.Errorf("tiles %dx%d, want 12x10", r.HW.TilesX, r.HW.TilesY)
	}
	if r.HW.NoCDerate != 0.5 || r.HW.HBMDerate != 0.25 {
		t.Errorf("derates noc=%v hbm=%v, want 0.5/0.25", r.HW.NoCDerate, r.HW.HBMDerate)
	}
	if r.Seed != 9 {
		t.Errorf("seed %d, want 9", r.Seed)
	}
}

// FuzzParseFleetSpec fuzzes the -route and -fleet-replicas grammars. The
// invariants: parsers never panic; an accepted spec has unique non-empty
// replica names and yields a fleet config that Validate accepts; an
// accepted route string round-trips through Policy.String. The checked-in
// corpus holds the out-of-domain values (NaN and negative derates, zero
// tile grids) that every plain go test replays.
func FuzzParseFleetSpec(f *testing.F) {
	seeds := [][2]string{
		{"rr", "r1,r2,r3,r4"},
		{"jsq", "big:tiles=12x12,small:tiles=4x4:noc=0.8"},
		{"affinity", "edge:count=8:hbm=0.5:seed=3"},
		{"round-robin", "a:tiles=1x1,b:tiles=64x64"},
		{"bogus", "a,a"},
		{"", "x:tiles=0x0,y:count=65,:seed=-1"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	base := core.DefaultRunConfig()
	f.Fuzz(func(t *testing.T, route, spec string) {
		if pol, err := ParsePolicy(route); err == nil {
			if pol.String() != route && route != "round-robin" {
				t.Fatalf("accepted route %q renders as %q", route, pol)
			}
		}
		specs, err := ParseSpec(spec, base.HW)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, r := range specs {
			if r.Name == "" {
				t.Fatalf("accepted spec %q yields empty replica name", spec)
			}
			if seen[r.Name] {
				t.Fatalf("accepted spec %q yields duplicate replica %q", spec, r.Name)
			}
			seen[r.Name] = true
		}
		cfg := Config{Base: serve.Config{Model: "moe", RC: base}, Replicas: specs}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted spec %q yields a fleet config Validate rejects: %v", spec, err)
		}
	})
}
