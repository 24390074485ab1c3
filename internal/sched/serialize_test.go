package sched

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
)

func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	cfg := hw.Default()
	plan, w, _ := scheduleModel(t, "skipnet", Adyna(), 16)

	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePlan(bytes.NewReader(buf.Bytes()), w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(cfg, w.Graph); err != nil {
		t.Fatalf("decoded plan invalid: %v", err)
	}
	if len(dec.Segments) != len(plan.Segments) {
		t.Fatalf("segments %d -> %d", len(plan.Segments), len(dec.Segments))
	}
	// Every entity's evaluation must be identical through the round trip —
	// the bytes fully determine execution.
	for i, seg := range plan.Segments {
		dseg := dec.Segments[i]
		if len(dseg.Entities) != len(seg.Entities) {
			t.Fatalf("segment %d entities %d -> %d", i, len(seg.Entities), len(dseg.Entities))
		}
		for _, op := range seg.Entities {
			lead := op.Lead
			dop, ok := dseg.Entity(lead)
			if !ok {
				t.Fatalf("entity %v lost", lead)
			}
			if dop.BaseTiles != op.BaseTiles || dop.Partner != op.Partner ||
				dop.GroupLeader != op.GroupLeader || dop.Region != op.Region {
				t.Fatalf("entity %v metadata changed: %+v vs %+v", lead, dop, op)
			}
			leadOp := w.Graph.Op(lead)
			if !leadOp.Dynamic || leadOp.Space[0] == 0 {
				continue
			}
			for k := range op.Options {
				v := leadOp.MaxUnits / 2
				a, err := plan.EvaluateEntityDensity(cfg, w.Graph, op, op.Options[k], v, 1)
				if err != nil {
					t.Fatal(err)
				}
				b, err := dec.EvaluateEntityDensity(cfg, w.Graph, dop, dop.Options[k], v, 1)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("entity %v option %d evaluates differently: %+v vs %+v", lead, k, a, b)
				}
			}
		}
	}
}

// TestPlanRoundTripUnderDegradedMasks is the property the plan cache's
// persistence relies on: plans solved for degraded chips — random tile masks
// of varying severity — survive Encode/Decode byte-for-byte and still
// validate against the config they were solved for.
func TestPlanRoundTripUnderDegradedMasks(t *testing.T) {
	_, w, prof := scheduleModel(t, "moe", Adyna(), 8)
	rng := rand.New(rand.NewSource(42))
	total := hw.Default().Tiles()
	for trial := 0; trial < 12; trial++ {
		nFail := 1 + rng.Intn(total/3)
		var tiles []int
		for _, tile := range rng.Perm(total)[:nFail] {
			tiles = append(tiles, tile)
		}
		cfg := hw.Default()
		cfg.FailedTiles = hw.NewTileMask(tiles...)
		plan, err := Schedule(cfg, w.Graph, Adyna(), prof)
		if err != nil {
			// Some masks leave too few tiles for the policy; that is the
			// scheduler's call, not the codec's problem.
			continue
		}
		var b1 bytes.Buffer
		if err := plan.Encode(&b1); err != nil {
			t.Fatalf("trial %d (mask %v): encode: %v", trial, cfg.FailedTiles, err)
		}
		dec, err := DecodePlan(bytes.NewReader(b1.Bytes()), w.Graph)
		if err != nil {
			t.Fatalf("trial %d (mask %v): decode: %v", trial, cfg.FailedTiles, err)
		}
		if err := dec.Validate(cfg, w.Graph); err != nil {
			t.Fatalf("trial %d (mask %v): decoded plan invalid on its own chip: %v", trial, cfg.FailedTiles, err)
		}
		var b2 bytes.Buffer
		if err := dec.Encode(&b2); err != nil {
			t.Fatalf("trial %d (mask %v): re-encode: %v", trial, cfg.FailedTiles, err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("trial %d (mask %v): round trip not byte-identical", trial, cfg.FailedTiles)
		}
	}
}

func TestDecodePlanRejectsCorruption(t *testing.T) {
	_, w, _ := scheduleModel(t, "skipnet", MTile(), 0)
	if _, err := DecodePlan(strings.NewReader("{bogus"), w.Graph); err == nil {
		t.Fatal("garbage accepted")
	}
	// A plan referencing operators outside the graph is rejected.
	small := graph.NewBuilder("tiny", 1)
	in := small.Input("in", 8, 2)
	f := small.MatMul("f", in, 4, 4)
	small.Output("o", f)
	tinyG := small.MustBuild()
	plan, bigW, _ := scheduleModel(t, "skipnet", MTile(), 0)
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(bytes.NewReader(buf.Bytes()), tinyG); err == nil {
		t.Fatal("plan for a different graph accepted")
	}
	// Entity membership follows from the entities: skipnet's op 0 is its
	// input, ops 1 and 2 a conv2d and the eltwise fused into it.
	opt := `"base_tiles":1,"region":[0,1],"partner":-1,"group_leader":-1,"options":[{"tiles":1}]`
	for _, tc := range []struct {
		name, seg string
		ok        bool
	}{
		{"genuine", `"ops":[0,1,2],"plans":[{"lead":1,"fused":[2],` + opt + `}],"entity_of":{"1":1,"2":1}`, true},
		{"entity_of names a control op", `"ops":[0,1,2],"plans":[{"lead":1,"fused":[2],` + opt + `}],"entity_of":{"0":0,"1":1,"2":1}`, false},
		{"entity_of misses a follower", `"ops":[0,1,2],"plans":[{"lead":1,"fused":[2],` + opt + `}],"entity_of":{"1":1}`, false},
		{"control op leads", `"ops":[0,1],"plans":[{"lead":0,` + opt + `},{"lead":1,` + opt + `}],"entity_of":{"0":0,"1":1}`, false},
		{"member outside ops", `"ops":[0,1],"plans":[{"lead":1,"fused":[2],` + opt + `}],"entity_of":{"1":1,"2":1}`, false},
		{"entities out of op order", `"ops":[0,1,2],"plans":[{"lead":2,` + opt + `},{"lead":1,` + opt + `}],"entity_of":{"1":1,"2":2}`, false},
		{"op in two entities", `"ops":[0,1,2],"plans":[{"lead":1,"fused":[2],` + opt + `},{"lead":2,` + opt + `}],"entity_of":{"1":1,"2":2}`, false},
	} {
		_, err := DecodePlan(strings.NewReader(`{"segments":[{`+tc.seg+`}]}`), bigW.Graph)
		if (err == nil) != tc.ok {
			t.Errorf("%s: DecodePlan error %v", tc.name, err)
		}
	}
}

func TestFullKernelPlanSerializesWithoutBlobs(t *testing.T) {
	plan, w, _ := scheduleModel(t, "skipnet", FullKernelIdeal(), 8)
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePlan(bytes.NewReader(buf.Bytes()), w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Full-kernel options come back without kernels: the decoded plan's
	// compiler compiles them on demand.
	cfg := hw.Default()
	for _, seg := range dec.Segments {
		for _, op := range seg.Entities {
			lead := op.Lead
			leadOp := w.Graph.Op(lead)
			if !leadOp.Dynamic || leadOp.Space[0] == 0 {
				continue
			}
			k, err := op.Options[0].kernel(dec, cfg, leadOp, 5)
			if err != nil {
				t.Fatal(err)
			}
			if k.CompiledUnits != 5 {
				t.Fatalf("full-kernel option must compile exactly: %d", k.CompiledUnits)
			}
			return
		}
	}
}
