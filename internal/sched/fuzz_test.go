package sched

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/models"
)

// fuzzGraph is a small dynamic network for the plan fuzzer: a gate choosing
// between two matmul branches, the merge and a vector tail fused into it,
// at most two units per batch. Its plans exercise kernel sets, pairs and
// fused operators in a few kilobytes. A full model's plan runs to over
// 100 KB (skipnet's); the fuzzer minimizes each input that reaches new
// coverage in tries quadratic in its length, and every try decodes and
// encodes the input twice.
func fuzzGraph(t testing.TB) *graph.Graph {
	b := graph.NewBuilder("fuzz", 1)
	in := b.Input("in", 64, 2)
	gate := b.Gate("gate", in, 8, 2)
	br := b.Switch("sw", in, gate, 2)
	x := b.MatMul("x", br[0], 8, 8)
	y := b.MatMul("y", br[1], 8, 8)
	m := b.Merge("merge", br, x, y)
	act := b.Elementwise("act", 16, m)
	b.Output("out", act)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seedPlans encodes g's plans under every policy family on the healthy
// chip, then Adyna's on two degraded chips: the plan cache persists those,
// so the codec must round-trip masked-config plans as faithfully as healthy
// ones.
func seedPlans(t testing.TB, g *graph.Graph) [][]byte {
	type solve struct {
		pol  Policy
		mask hw.TileMask
	}
	solves := []solve{{pol: Adyna()}, {pol: MTile()}, {pol: FullKernelIdeal()},
		{Adyna(), hw.NewTileMask(0, 1, 2, 3)},
		{Adyna(), hw.NewTileMask(0, 7, 15, 31, 63, 64, 100)},
	}
	var out [][]byte
	for _, s := range solves {
		cfg := hw.Default()
		cfg.FailedTiles = s.mask
		plan, err := Schedule(cfg, g, s.pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := plan.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// checkPlanRoundTrip is the plan loader's contract on arbitrary bytes:
// DecodePlan must either error or return a plan that (a) never panics
// Validate, against the healthy chip or one with a fault mask, and (b)
// re-encodes to a fixed point: encoding the decoded plan and decoding it
// again reproduces the same bytes.
func checkPlanRoundTrip(t *testing.T, g *graph.Graph, data []byte) {
	p, err := DecodePlan(bytes.NewReader(data), g)
	if err != nil {
		return
	}
	if p == nil {
		t.Fatal("DecodePlan returned nil plan and nil error")
	}
	// Validation may reject, but must not panic — including against a
	// chip whose fault mask leaves fewer live tiles than the plan wants.
	masked := hw.Default()
	masked.FailedTiles = hw.NewTileMask(0, 1, 2, 3, 40, 41, 42, 43)
	_ = p.Validate(hw.Default(), g)
	_ = p.Validate(masked, g)
	// Fixed point: once normalized by a decode, encoding is stable.
	var b1 bytes.Buffer
	if err := p.Encode(&b1); err != nil {
		t.Fatalf("re-encoding decoded plan: %v", err)
	}
	p2, err := DecodePlan(bytes.NewReader(b1.Bytes()), g)
	if err != nil {
		t.Fatalf("decoding own encoding: %v", err)
	}
	var b2 bytes.Buffer
	if err := p2.Encode(&b2); err != nil {
		t.Fatalf("re-encoding twice-decoded plan: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("encode/decode not a fixed point:\nfirst:  %s\nsecond: %s", b1.Bytes(), b2.Bytes())
	}
}

// FuzzPlanRoundTrip checks checkPlanRoundTrip's contract on arbitrary
// bytes, the "load a shipped plan artifact" surface, against fuzzGraph.
func FuzzPlanRoundTrip(f *testing.F) {
	g := fuzzGraph(f)
	for _, plan := range seedPlans(f, g) {
		f.Add(plan)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"policy":{},"segments":[]}`))
	f.Add([]byte(`{"segments":[{"ops":[999]}]}`))
	f.Add([]byte(`{"segments":[{"ops":[0],"plans":[{"lead":-2,"options":[{"tiles":1}]}]}]}`))
	f.Add([]byte(`{"segments":[{"entity_of":{"5000":0}}]}`))
	f.Add([]byte(`{"segments":[{"plans":[{"lead":0,"region":[-4,900],"options":[{"tiles":0}]}]}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		checkPlanRoundTrip(t, g, data)
	})
}

// TestFullPlanRoundTrip holds a full model's plans, which are too large to
// seed the fuzzer with, to the same contract: skipnet's under every policy
// family and on two degraded chips.
func TestFullPlanRoundTrip(t *testing.T) {
	w, err := models.ByName("skipnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range seedPlans(t, w.Graph) {
		checkPlanRoundTrip(t, w.Graph, plan)
		p, err := DecodePlan(bytes.NewReader(plan), w.Graph)
		if err != nil {
			t.Fatalf("a solved plan does not decode: %v", err)
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), plan) {
			t.Fatal("a solved plan does not survive decode and re-encode byte for byte")
		}
	}
}
