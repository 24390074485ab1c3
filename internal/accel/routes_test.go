package accel

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// xferPairs runs the trace on m with a fresh recorder on its NoC and returns
// the distinct (src, dst) tile pairs of the recorded transfer spans.
func xferPairs(t *testing.T, m *Machine, trace []workload.Batch) map[[2]int64]bool {
	t.Helper()
	rec := telemetry.NewRecorder("routes")
	m.noc.SetRecorder(rec)
	defer m.noc.SetRecorder(nil)
	if err := m.Run(trace); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Args struct{ Src, Dst int64 }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]int64]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Name == "xfer" {
			pairs[[2]int64{ev.Args.Src, ev.Args.Dst}] = true
		}
	}
	if len(pairs) == 0 {
		t.Fatal("run recorded no NoC transfers")
	}
	return pairs
}

// planTiles returns the physical lead tile of every entity of p, placed
// through cfg's live→physical translation.
func planTiles(p *sched.Plan, cfg hw.Config) map[int64]bool {
	tiles := map[int64]bool{}
	for _, seg := range p.Segments {
		for _, op := range seg.Entities {
			tiles[int64(cfg.PhysicalTile(noc.Centroid(op.Region)))] = true
		}
	}
	return tiles
}

func samePairs(a, b map[[2]int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

// TestRoutesFollowPlanConfig pins where the per-plan route table comes from.
// A plan loaded on a partition mask sends every transfer between the masked
// physical tiles of its entities. A mask applied after the load leaves the
// routes alone (the frozen plan runs degraded on the tiles it was placed on)
// until the next successful load re-places them; a rejected load keeps the
// current table.
func TestRoutesFollowPlanConfig(t *testing.T) {
	w, err := models.ByName("skipnet", 8)
	if err != nil {
		t.Fatal(err)
	}
	trace := w.GenTrace(workload.NewSource(3), 2, 8)
	healthy := hw.Default()

	// The mtserve shape: this machine owns the upper half of the chip.
	part := healthy
	part.FailedTiles = hw.RangeTileMask(healthy.Tiles()/2, healthy.Tiles()/2).Complement(healthy.Tiles())
	partPlan, err := sched.Schedule(part, w.Graph, sched.Adyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(part, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(partPlan); err != nil {
		t.Fatal(err)
	}
	want := planTiles(partPlan, part)
	for p := range xferPairs(t, m, trace) {
		for _, tile := range p {
			if part.TileFailed(int(tile)) || !want[tile] {
				t.Fatalf("partitioned transfer %d->%d leaves the plan's masked lead tiles %v", p[0], p[1], want)
			}
		}
	}

	// Healthy load, then a mask that shifts every live index by one.
	plan, err := sched.Schedule(healthy, w.Graph, sched.Adyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err = New(healthy, w.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(plan); err != nil {
		t.Fatal(err)
	}
	loaded := xferPairs(t, m, trace)
	if err := m.SetCapability(hw.NewTileMask(0), 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := xferPairs(t, m, trace); !samePairs(got, loaded) {
		t.Fatalf("SetCapability moved the frozen plan's routes: %v, want %v", got, loaded)
	}
	// The healthy plan needs every tile: loading it on the masked chip fails
	// and must leave the route table as it was.
	if err := m.LoadPlan(plan); err == nil {
		t.Fatal("healthy plan loaded on a chip with a failed tile")
	}
	if got := xferPairs(t, m, trace); !samePairs(got, loaded) {
		t.Fatalf("rejected LoadPlan replaced the routes: %v, want %v", got, loaded)
	}
	// The next successful load places routes through the new mask.
	masked := healthy
	masked.FailedTiles = hw.NewTileMask(0)
	replan, err := sched.Schedule(masked, w.Graph, sched.Adyna(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlan(replan); err != nil {
		t.Fatal(err)
	}
	want = planTiles(replan, masked)
	for p := range xferPairs(t, m, trace) {
		for _, tile := range p {
			if tile == 0 || !want[tile] {
				t.Fatalf("reloaded transfer %d->%d leaves the new plan's masked lead tiles %v", p[0], p[1], want)
			}
		}
	}
}
