package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// buildSkipBlock builds the Figure 6 style layer-skipping block:
//
//	input -> gate -> switch -> B1: one conv    \
//	                        -> B2: two convs   -> merge -> output
func buildSkipBlock(t testing.TB, maxUnits int) (*Graph, map[string]OpID) {
	b := NewBuilder("skipblock", 1)
	cs := ConvSpec{InC: 16, OutC: 16, H: 8, W: 8, R: 3, S: 3, Stride: 1, Pad: 1}
	in := b.Input("in", cs.inBytes(), maxUnits)
	gate := b.Gate("gate", in, 16*8*8, 2)
	br := b.Switch("sw", in, gate, 2)
	b1 := b.Conv2D("b1_conv", br[0], cs)
	b2a := b.Conv2D("b2_conv1", br[1], cs)
	b2b := b.Conv2D("b2_conv2", b2a, cs)
	m := b.Merge("merge", br, b1, b2b)
	b.Output("out", m)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]OpID{}
	for _, op := range g.Ops {
		ids[op.Name] = op.ID
	}
	return g, ids
}

func (s ConvSpec) inBytes() int64 {
	return int64(s.InC) * int64(s.H) * int64(s.W) * 2
}

func TestBuilderSkipBlock(t *testing.T) {
	g, ids := buildSkipBlock(t, 8)
	sw := g.Op(ids["sw"])
	if sw.Kind != KindSwitch || sw.NumBranches != 2 {
		t.Fatalf("switch malformed: %+v", sw)
	}
	if sw.MaskInput != ids["gate"] {
		t.Fatal("mask input not recorded")
	}
	b1 := g.Op(ids["b1_conv"])
	if !b1.Dynamic || b1.SwitchOf != sw.ID || b1.Branch != 0 {
		t.Fatalf("b1 dynamism wrong: %+v", b1)
	}
	b2b := g.Op(ids["b2_conv2"])
	if !b2b.Dynamic || b2b.Branch != 1 {
		t.Fatalf("b2_conv2 dynamism wrong: %+v", b2b)
	}
	m := g.Op(ids["merge"])
	if m.MergeOf != sw.ID || m.Dynamic {
		t.Fatalf("merge wrong: %+v", m)
	}
	out := g.Op(ids["out"])
	if out.Dynamic {
		t.Fatal("output after merge must be static")
	}
	// Conv work model sanity: 16*16*3*3*8*8 MACs per unit.
	want := int64(16 * 16 * 3 * 3 * 8 * 8)
	if b1.MACsPerUnit != want {
		t.Fatalf("conv MACs/unit = %d, want %d", b1.MACsPerUnit, want)
	}
	if g.MaxMACsPerBatch() <= 0 {
		t.Fatal("worst-case MACs must be positive")
	}
}

func TestBranchOps(t *testing.T) {
	g, ids := buildSkipBlock(t, 8)
	b0 := g.BranchOps(ids["sw"], 0)
	if len(b0) != 1 || b0[0] != ids["b1_conv"] {
		t.Fatalf("branch 0 ops = %v", b0)
	}
	b1 := g.BranchOps(ids["sw"], 1)
	if len(b1) != 2 {
		t.Fatalf("branch 1 ops = %v, want 2 convs", b1)
	}
	if got := g.BranchOps(ids["b1_conv"], 0); got != nil {
		t.Fatal("BranchOps on non-switch should be nil")
	}
}

// The operator views are computed when the graph is built: reading them
// allocates nothing, and a decoded graph gets the same views.
func TestGraphViewsComputedOnce(t *testing.T) {
	g, ids := buildSkipBlock(t, 8)
	sw := ids["sw"]
	n := testing.AllocsPerRun(10, func() {
		_ = g.Switches()
		_ = g.DynamicOps()
		_ = g.DensityOps()
		_ = g.ComputeOps()
		_ = g.BranchOps(sw, 1)
	})
	if n != 0 {
		t.Fatalf("reading the graph views allocates %.0f times, want 0", n)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if got, want := fmt.Sprint(d.BranchOps(sw, k)), fmt.Sprint(g.BranchOps(sw, k)); got != want {
			t.Fatalf("decoded branch %d = %s, want %s", k, got, want)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []OpID
	}{
		{"Switches", d.Switches(), g.Switches()},
		{"DynamicOps", d.DynamicOps(), g.DynamicOps()},
		{"DensityOps", d.DensityOps(), g.DensityOps()},
		{"ComputeOps", d.ComputeOps(), g.ComputeOps()},
	} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Fatalf("decoded %s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestTopoCoversAllOps(t *testing.T) {
	g, _ := buildSkipBlock(t, 8)
	order := g.Topo()
	if len(order) != len(g.Ops) {
		t.Fatalf("topo has %d ops, want %d", len(order), len(g.Ops))
	}
	pos := map[OpID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, op := range g.Ops {
		for _, out := range op.Outputs {
			if pos[out] <= pos[op.ID] {
				t.Fatalf("edge %v -> %v violates topo order", op.ID, out)
			}
		}
	}
}

func TestAssignUnits(t *testing.T) {
	g, ids := buildSkipBlock(t, 8)
	rt := BatchRouting{
		{Branch: [][]int32{{0, 2, 4, 6, 7}, {1, 3, 5}}},
	}
	units, err := g.AssignUnits(nil, 8, rt)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{
		"in": 8, "gate": 8, "sw": 8,
		"b1_conv": 5, "b2_conv1": 3, "b2_conv2": 3,
		"merge": 8, "out": 8,
	}
	for name, want := range checks {
		if got := units[ids[name]]; got != want {
			t.Errorf("units[%s] = %d, want %d", name, got, want)
		}
	}
}

func TestAssignUnitsEmptyBranch(t *testing.T) {
	g, ids := buildSkipBlock(t, 8)
	rt := BatchRouting{{Branch: [][]int32{{0, 1, 2, 3, 4, 5, 6, 7}, {}}}}
	units, err := g.AssignUnits(nil, 8, rt)
	if err != nil {
		t.Fatal(err)
	}
	if units[ids["b2_conv1"]] != 0 {
		t.Fatalf("empty branch has %d units", units[ids["b2_conv1"]])
	}
}

func TestAssignUnitsMissingRouting(t *testing.T) {
	g, _ := buildSkipBlock(t, 8)
	if _, err := g.AssignUnits(nil, 8, BatchRouting{}); err == nil {
		t.Fatal("expected missing-routing error")
	}
}

func TestValidateRouting(t *testing.T) {
	g, _ := buildSkipBlock(t, 8)
	good := BatchRouting{{Branch: [][]int32{{0, 1}, {2, 3, 4, 5, 6, 7}}}}
	if err := g.ValidateRouting(8, good, true); err != nil {
		t.Fatalf("good routing rejected: %v", err)
	}
	cases := []struct {
		name string
		rt   BatchRouting
	}{
		{"out of range", BatchRouting{{Branch: [][]int32{{0, 99}, {}}}}},
		{"duplicate in branch", BatchRouting{{Branch: [][]int32{{0, 0}, {}}}}},
		{"wrong branch count", BatchRouting{{Branch: [][]int32{{0}}}}},
		{"unrouted unit", BatchRouting{{Branch: [][]int32{{0}, {1}}}}},
		{"missing switch", BatchRouting{}},
		{"extra switch", BatchRouting{{Branch: [][]int32{{0, 1}, {2, 3, 4, 5, 6, 7}}}, {}}},
	}
	for _, tc := range cases {
		if err := g.ValidateRouting(8, tc.rt, true); err == nil {
			t.Errorf("%s: routing accepted", tc.name)
		}
	}
	// Non-exclusive mode tolerates dropped units.
	if err := g.ValidateRouting(8, BatchRouting{{Branch: [][]int32{{0}, {1}}}}, false); err != nil {
		t.Errorf("non-exclusive mode rejected dropped units: %v", err)
	}
}

func TestBuilderRejectsCrossBranchOp(t *testing.T) {
	b := NewBuilder("bad", 1)
	in := b.Input("in", 64, 4)
	gate := b.Gate("gate", in, 32, 2)
	br := b.Switch("sw", in, gate, 2)
	// One op consuming two different branches directly: forbidden.
	b.Elementwise("cross", 64, br[0], br[1])
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "multiple branches") {
		t.Fatalf("expected multiple-branches error, got %v", err)
	}
}

func TestBuilderRejectsTwoBranchConnections(t *testing.T) {
	b := NewBuilder("bad", 1)
	in := b.Input("in", 64, 4)
	gate := b.Gate("gate", in, 32, 2)
	br := b.Switch("sw", in, gate, 2)
	x := b.Elementwise("x", 64, br[0])
	y := b.Elementwise("y", 64, br[1])
	m := b.Merge("m", br, x, y)
	b.Output("out", m)
	// A second merge for the same switch is rejected at Build.
	x2 := b.Elementwise("x2", 64, br[0])
	_ = x2
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error: branch head count mismatch")
	}
}

func TestBuilderRejectsMergeAcrossSwitches(t *testing.T) {
	b := NewBuilder("bad", 1)
	in := b.Input("in", 64, 4)
	g1 := b.Gate("g1", in, 32, 2)
	br1 := b.Switch("sw1", in, g1, 2)
	x := b.Elementwise("x", 64, br1[0])
	y := b.Elementwise("y", 64, br1[1])
	m1 := b.Merge("m1", br1, x, y)
	g2 := b.Gate("g2", m1, 32, 2)
	br2 := b.Switch("sw2", m1, g2, 2)
	p := b.Elementwise("p", 64, br2[0])
	q := b.Elementwise("q", 64, br2[1])
	// Merging sw2's branches while claiming sw1: forbidden.
	b.Merge("bad_merge", br1, p, q)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected scope error for cross-switch merge")
	}
}

func TestBuilderRejectsDuplicateBranchInMerge(t *testing.T) {
	b := NewBuilder("bad", 1)
	in := b.Input("in", 64, 4)
	g1 := b.Gate("g1", in, 32, 2)
	br := b.Switch("sw", in, g1, 2)
	x := b.Elementwise("x", 64, br[0])
	x2 := b.Elementwise("x2", 64, x)
	b.Merge("m", br, x, x2) // both inputs from branch 0
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-branch error")
	}
}

func TestBuilderErrorsAreSticky(t *testing.T) {
	b := NewBuilder("bad", 1)
	p := b.Input("in", 64, -1) // invalid
	q := b.MatMul("fc", p, 8, 8)
	_ = q
	if _, err := b.Build(); err == nil {
		t.Fatal("expected sticky error")
	}
}

func TestNestedSwitchesEarlyExit(t *testing.T) {
	// PABEE-style: sw1 exit -> sink; continue -> block -> sw2 exit -> sink;
	// continue -> classifier -> output.
	b := NewBuilder("earlyexit", 1)
	in := b.Input("in", 256, 8)
	g1 := b.Gate("g1", in, 128, 2)
	br1 := b.Switch("sw1", in, g1, 2)
	exit1 := b.MatMul("exit1", br1[0], 128, 10)
	b.Sink("sink1", exit1)
	blk := b.MatMul("block2", br1[1], 128, 128)
	g2 := b.Gate("g2", blk, 128, 2)
	br2 := b.Switch("sw2", blk, g2, 2)
	exit2 := b.MatMul("exit2", br2[0], 128, 10)
	b.Sink("sink2", exit2)
	cls := b.MatMul("classifier", br2[1], 128, 10)
	b.Output("out", cls)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]OpID{}
	for _, op := range g.Ops {
		ids[op.Name] = op.ID
	}
	// sw2 is dynamic (nested under sw1).
	sw2 := g.Op(ids["sw2"])
	if !sw2.Dynamic || sw2.SwitchOf != ids["sw1"] || sw2.Branch != 1 {
		t.Fatalf("sw2 nesting wrong: %+v", sw2)
	}
	cl := g.Op(ids["classifier"])
	if !cl.Dynamic || cl.SwitchOf != ids["sw2"] {
		t.Fatalf("classifier nesting wrong: %+v", cl)
	}
	// Units: 8 in; 3 exit at sw1; of the 5 remaining, 2 exit at sw2.
	rt := BatchRouting{
		{Branch: [][]int32{{0, 1, 2}, {3, 4, 5, 6, 7}}},
		{Branch: [][]int32{{3, 4}, {5, 6, 7}}},
	}
	units, err := g.AssignUnits(nil, 8, rt)
	if err != nil {
		t.Fatal(err)
	}
	if units[ids["exit1"]] != 3 || units[ids["block2"]] != 5 ||
		units[ids["exit2"]] != 2 || units[ids["classifier"]] != 3 {
		t.Fatalf("nested units wrong: exit1=%d block2=%d exit2=%d cls=%d",
			units[ids["exit1"]], units[ids["block2"]], units[ids["exit2"]], units[ids["classifier"]])
	}
	if err := g.ValidateRouting(8, rt, true); err != nil {
		t.Fatalf("nested routing rejected: %v", err)
	}
	// Routing a unit at sw2 that exited at sw1 must be rejected.
	bad := BatchRouting{
		{Branch: [][]int32{{0, 1, 2}, {3, 4, 5, 6, 7}}},
		{Branch: [][]int32{{0, 4}, {5, 6, 7}}},
	}
	if err := g.ValidateRouting(8, bad, false); err == nil {
		t.Fatal("expected never-arrived error")
	}
}

// Property: for any exclusive routing of B units across 2 branches, assigned
// units are conserved: branch0 + branch1 == B at the merge.
func TestQuickUnitConservation(t *testing.T) {
	g, ids := buildSkipBlock(t, 64)
	f := func(mask uint64) bool {
		const B = 64
		var b0, b1 []int32
		for i := range int32(B) {
			if mask&(1<<uint(i)) != 0 {
				b0 = append(b0, i)
			} else {
				b1 = append(b1, i)
			}
		}
		rt := BatchRouting{{Branch: [][]int32{b0, b1}}}
		units, err := g.AssignUnits(nil, B, rt)
		if err != nil {
			return false
		}
		return units[ids["b1_conv"]]+units[ids["b2_conv1"]] == B &&
			units[ids["merge"]] == B
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// withRefs attaches trivial reference implementations to a skip block so it
// can execute functionally: branch 1 negates once, branch 2 doubles twice.
func buildExecBlock(t *testing.T) (*Graph, map[string]OpID) {
	b := NewBuilder("execblock", 1)
	in := b.Input("in", 8, 4)
	gate := b.Gate("gate", in, 4, 2)
	br := b.Switch("sw", in, gate, 2)
	neg := b.Elementwise("neg", 8, br[0])
	dbl1 := b.Elementwise("dbl1", 8, br[1])
	dbl2 := b.Elementwise("dbl2", 8, dbl1)
	m := b.Merge("merge", br, neg, dbl2)
	b.Output("out", m)
	scale := func(f float32) func([]*tensor.Tensor) (*tensor.Tensor, error) {
		return func(ins []*tensor.Tensor) (*tensor.Tensor, error) {
			out := ins[0].Clone()
			for i := range out.Data {
				out.Data[i] *= f
			}
			return out, nil
		}
	}
	b.SetRef(gate, scale(0)) // gate output ignored; routing comes from rt
	b.SetRef(neg, scale(-1))
	b.SetRef(dbl1, scale(2))
	b.SetRef(dbl2, scale(2))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]OpID{}
	for _, op := range g.Ops {
		ids[op.Name] = op.ID
	}
	return g, ids
}

func TestExecuteRoutesLosslessly(t *testing.T) {
	g, ids := buildExecBlock(t)
	in := tensor.New(tensor.MustShape(4, 4))
	for i := range in.Data {
		in.Data[i] = float32(i + 1)
	}
	rt := BatchRouting{{Branch: [][]int32{{1, 3}, {0, 2}}}}
	res, err := g.Execute(in, rt)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[ids["out"]]
	if out == nil || out.Shape[0] != 4 {
		t.Fatalf("output shape wrong: %v", out)
	}
	// Samples 1 and 3 negated; samples 0 and 2 multiplied by 4.
	for s := 0; s < 4; s++ {
		for j := 0; j < 4; j++ {
			want := in.At(s, j) * 4
			if s == 1 || s == 3 {
				want = -in.At(s, j)
			}
			if got := out.At(s, j); got != want {
				t.Fatalf("out[%d,%d] = %v, want %v", s, j, got, want)
			}
		}
	}
	// Execute's per-op units agree with AssignUnits.
	units, err := g.AssignUnits(nil, 4, rt)
	if err != nil {
		t.Fatal(err)
	}
	for id, u := range units {
		if res.Units[id] != u {
			t.Fatalf("op %v: exec units %d vs assign %d", g.Op(OpID(id)), res.Units[id], u)
		}
	}
}

func TestExecuteEmptyBranch(t *testing.T) {
	g, ids := buildExecBlock(t)
	in := tensor.New(tensor.MustShape(4, 4))
	for i := range in.Data {
		in.Data[i] = 1
	}
	rt := BatchRouting{{Branch: [][]int32{{}, {0, 1, 2, 3}}}}
	res, err := g.Execute(in, rt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units[ids["neg"]] != 0 {
		t.Fatal("empty branch should see zero units")
	}
	out := res.Outputs[ids["out"]]
	for _, v := range out.Data {
		if v != 4 {
			t.Fatalf("all samples should be scaled by 4, got %v", v)
		}
	}
}

func TestExecuteBroadcastAccumulates(t *testing.T) {
	// MoE-style: both branches are identity; a sample routed to both should
	// come out doubled by the accumulating merge.
	b := NewBuilder("moe", 1)
	in := b.Input("in", 8, 2)
	gate := b.Gate("gate", in, 4, 2)
	br := b.Switch("sw", in, gate, 2)
	e0 := b.Elementwise("e0", 8, br[0])
	e1 := b.Elementwise("e1", 8, br[1])
	m := b.Merge("merge", br, e0, e1)
	b.Output("out", m)
	ident := func(ins []*tensor.Tensor) (*tensor.Tensor, error) { return ins[0].Clone(), nil }
	b.SetRef(gate, ident)
	b.SetRef(e0, ident)
	b.SetRef(e1, ident)
	g := b.MustBuild()
	ids := map[string]OpID{}
	for _, op := range g.Ops {
		ids[op.Name] = op.ID
	}
	in2 := tensor.New(tensor.MustShape(2, 4))
	for i := range in2.Data {
		in2.Data[i] = 3
	}
	rt := BatchRouting{{Branch: [][]int32{{0, 1}, {0}}}} // sample 0 broadcast
	res, err := g.Execute(in2, rt)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[ids["out"]]
	if out.At(0, 0) != 6 || out.At(1, 0) != 3 {
		t.Fatalf("broadcast accumulation wrong: %v", out.Data)
	}
}

func TestExecuteMissingRefErrors(t *testing.T) {
	g, _ := buildSkipBlock(t, 4)
	in := tensor.New(tensor.MustShape(4, 16*8*8))
	rt := BatchRouting{{Branch: [][]int32{{0, 1}, {2, 3}}}}
	if _, err := g.Execute(in, rt); err == nil {
		t.Fatal("expected missing-ref error")
	}
}

func TestKindStrings(t *testing.T) {
	if KindSwitch.String() != "switch" || KindConv2D.String() != "conv2d" {
		t.Fatal("kind names wrong")
	}
	if !KindMatMul.IsCompute() || KindSwitch.IsCompute() {
		t.Fatal("IsCompute wrong")
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestOpStringMentionsDynamism(t *testing.T) {
	g, ids := buildSkipBlock(t, 8)
	s := g.Op(ids["b1_conv"]).String()
	if !strings.Contains(s, "dyn") || !strings.Contains(s, "conv2d") {
		t.Fatalf("op string = %q", s)
	}
}

func TestGraphEncodeDecodeRoundTrip(t *testing.T) {
	g, _ := buildSkipBlock(t, 16)
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != g.Name || dec.UnitsPerSample != g.UnitsPerSample {
		t.Fatalf("header lost: %q %d", dec.Name, dec.UnitsPerSample)
	}
	if len(dec.Ops) != len(g.Ops) {
		t.Fatalf("ops %d -> %d", len(g.Ops), len(dec.Ops))
	}
	for i, op := range g.Ops {
		d := dec.Ops[i]
		if d.Name != op.Name || d.Kind != op.Kind || d.MACsPerUnit != op.MACsPerUnit ||
			d.Dynamic != op.Dynamic || d.MaxUnits != op.MaxUnits ||
			d.SwitchOf != op.SwitchOf || d.Branch != op.Branch || d.Space != op.Space {
			t.Fatalf("op %d changed: %+v vs %+v", i, d, op)
		}
	}
	// The decoded graph routes and assigns identically.
	rt := BatchRouting{{Branch: [][]int32{{0, 1, 2}, {3, 4}}}}
	a, err := g.AssignUnits(nil, 5, rt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.AssignUnits(nil, 5, rt)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a {
		if a[id] != b[id] {
			t.Fatalf("assignment differs at op %v", id)
		}
	}
}

func TestDecodeGraphRejectsCorruption(t *testing.T) {
	if _, err := DecodeGraph(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
	g, _ := buildSkipBlock(t, 8)
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate the op list to break edges.
	s := buf.String()
	broken := strings.Replace(s, `"inputs":[0]`, `"inputs":[999]`, 1)
	if broken == s {
		t.Skip("fixture layout changed")
	}
	if _, err := DecodeGraph(strings.NewReader(broken)); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestSerializedGraphSchedulesAndSimulates(t *testing.T) {
	// The decoded artifact drives the whole downstream stack.
	g, _ := buildSkipBlock(t, 16)
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.MaxMACsPerBatch(); got != g.MaxMACsPerBatch() {
		t.Fatalf("worst-case MACs changed: %d vs %d", got, g.MaxMACsPerBatch())
	}
}
