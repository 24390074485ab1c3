package parser

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sched"
)

const skipBlockSrc = `
# Figure 6 style layer-skipping block.
model skipblock units=1
input  in  bytes=4096 max=128
conv   c1  from=in inc=64 outc=64 h=8 w=8 r=3 s=3 stride=1 pad=1
gate   g1  from=c1 feat=64 choices=2
switch sw  data=c1 mask=g1 branches=2
conv   b1  from=sw:0 inc=64 outc=64 h=8 w=8 r=3 s=3 pad=1
conv   b2a from=sw:1 inc=64 outc=64 h=8 w=8 r=3 s=3 pad=1
conv   b2b from=b2a  inc=64 outc=64 h=8 w=8 r=3 s=3 pad=1
merge  m1  switch=sw from=b1,b2b
eltwise relu from=m1 bytes=8192
matmul fc  from=relu in=64 out=10
output yhat from=fc
`

func TestParseSkipBlock(t *testing.T) {
	g, err := Parse(skipBlockSrc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "skipblock" {
		t.Fatalf("name = %q", g.Name)
	}
	if len(g.Switches()) != 1 {
		t.Fatalf("switches = %d", len(g.Switches()))
	}
	// Dynamic scope propagated through the parser-built graph.
	dyn := 0
	for _, id := range g.DynamicOps() {
		_ = id
		dyn++
	}
	if dyn < 3 {
		t.Fatalf("expected dynamic branch ops, got %d", dyn)
	}
	// The parsed graph schedules and validates like a hand-built one.
	plan, err := sched.Schedule(hw.Default(), g, sched.Adyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(hw.Default(), g); err != nil {
		t.Fatal(err)
	}
}

func TestParsedRoutingWorks(t *testing.T) {
	g := MustParse(skipBlockSrc)
	rt := graph.BatchRouting{{Branch: [][]int32{{0, 1, 2}, {3}}}}
	units, err := g.AssignUnits(nil, 4, rt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range g.Ops {
		if op.Name == "b1" {
			found = true
			if units[op.ID] != 3 {
				t.Fatalf("b1 units = %d, want 3", units[op.ID])
			}
		}
	}
	if !found {
		t.Fatal("parsed op b1 missing")
	}
}

func TestParseNestedEarlyExit(t *testing.T) {
	src := `
model earlyexit units=1
input  in bytes=256 max=8
gate   g1 from=in feat=128 choices=2
switch s1 data=in mask=g1 branches=2
matmul e1 from=s1:0 in=128 out=2
sink   x1 from=e1
matmul blk from=s1:1 in=128 out=128
gate   g2 from=blk feat=128 choices=2
switch s2 data=blk mask=g2 branches=2
matmul e2 from=s2:0 in=128 out=2
sink   x2 from=e2
matmul cls from=s2:1 in=128 out=2
output y from=cls
`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches()) != 2 {
		t.Fatalf("switches = %d", len(g.Switches()))
	}
	s2 := g.Op(g.Switches()[1])
	if !s2.Dynamic {
		t.Fatal("nested switch must be dynamic")
	}
}

func TestParseAllOperatorKinds(t *testing.T) {
	src := `
model kinds units=2
input in bytes=1024 max=16
seqmatmul q from=in seq=4 in=128 out=128
attention a from=q seq=4 dim=128
layernorm l from=a bytes=1024
softmax s from=l bytes=1024
pool p from=s inbytes=1024 outbytes=64
matmul f from=p in=32 out=8
output o from=f
`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.UnitsPerSample != 2 {
		t.Fatalf("units per sample = %d", g.UnitsPerSample)
	}
	kinds := map[graph.Kind]bool{}
	for _, op := range g.Ops {
		kinds[op.Kind] = true
	}
	for _, k := range []graph.Kind{graph.KindMatMul, graph.KindAttention,
		graph.KindLayerNorm, graph.KindSoftmax, graph.KindPool} {
		if !kinds[k] {
			t.Errorf("kind %v not parsed", k)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no model", "input in bytes=4 max=2", "before model"},
		{"unknown kind", "model m\nfrobnicate x from=y", "unknown operator kind"},
		{"unknown ref", "model m\ninput in bytes=4 max=2\nmatmul f from=nope in=2 out=2\noutput o from=f", "unknown operator"},
		{"bad attr", "model m\ninput in bytes max=2", "bad attribute"},
		{"dup attr", "model m\ninput in bytes=4 bytes=5 max=2", "duplicate attribute"},
		{"dup name", "model m\ninput in bytes=4 max=2\ninput in bytes=4 max=2", "duplicate operator name"},
		{"missing attr", "model m\ninput in max=2", "missing bytes"},
		{"bad branch", "model m\ninput in bytes=4 max=4\ngate g from=in feat=2 choices=2\nswitch s data=in mask=g branches=2\nmatmul f from=s:7 in=2 out=2", "bad branch index"},
		{"merge unknown switch", "model m\ninput in bytes=4 max=2\nmerge x switch=zz from=in", "unknown switch"},
		{"conv missing dims", "model m\ninput in bytes=4 max=2\nconv c from=in inc=3", "needs inc/outc/h/w"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: error expected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	_, err := Parse("model m\n\n# comment\nbogus x y=1")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want line number in %v", err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "  model m units=1  # trailing\n\n  input in bytes=8 max=2   # ok\n  matmul f from=in in=4 out=4\n output o from=f\n"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on bad input")
		}
	}()
	MustParse("bogus")
}
