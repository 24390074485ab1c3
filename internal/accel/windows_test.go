package accel

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/sim/simtest"
	"repro/internal/workload"
)

// runWindows runs moe at the given batch size as Run windows of window
// batches each, one window per entry of failed, on a fresh machine (see
// playWindows), and returns the machine.
func runWindows(t testing.TB, batch, window int, failed []hw.TileMask, between func(w int, m *Machine)) *Machine {
	t.Helper()
	wl, err := models.ByName("moe", batch)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(hw.Default(), wl.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := wl.GenTrace(workload.NewSource(13), window*len(failed), batch)
	playWindows(t, m, trace, window, failed, make([]*sched.Plan, len(failed)), between)
	return m
}

// playWindows runs trace through m as Run windows of window batches, one
// per entry of failed. Before every window after the first it applies that
// entry's failed-tile mask. Before every window it loads plans[w], which,
// when nil, it first fills with a plan the profiler re-schedules for the
// surviving chip: consecutive windows run different plans, and a mask that
// leaves a quarter of the chip yields a plan with another segment count.
// between, when set, sees the machine after each window.
func playWindows(t testing.TB, m *Machine, trace []workload.Batch, window int, failed []hw.TileMask, plans []*sched.Plan, between func(w int, m *Machine)) {
	t.Helper()
	for w, mask := range failed {
		if w > 0 {
			if err := m.SetCapability(mask, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
		if plans[w] == nil {
			live := hw.Default()
			live.FailedTiles = mask
			plan, err := sched.Schedule(live, m.g, sched.Adyna(), m.Profiler())
			if err != nil {
				t.Fatal(err)
			}
			plans[w] = plan
		}
		if err := m.LoadPlan(plans[w]); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(trace[w*window : (w+1)*window]); err != nil {
			t.Fatal(err)
		}
		if between != nil {
			between(w, m)
		}
	}
}

// quarterChip fails every tile but the last quarter: moe schedules three
// segments on what survives, against two on the full chip.
func quarterChip() hw.TileMask {
	n := hw.Default().Tiles()
	return hw.NewTileMask(tileSeq(n - n/4)...)
}

// TestRunWindowsMatchesGolden pins Run windows across plans: moe at batch
// 32 in three 8-batch windows, re-planned between them — on the full chip,
// on a quarter of it (three segments instead of two), and on the full chip
// again. Per-batch latencies and the final statistics must match the
// recorded golden byte for byte.
func TestRunWindowsMatchesGolden(t *testing.T) {
	m := runWindows(t, 32, 8, []hw.TileMask{"", quarterChip(), ""}, nil)
	simtest.Golden(t, "testdata", "run_windows", simtest.Artifacts{
		Outcomes: simtest.Render(t, m.Latencies()),
		Snapshot: simtest.Render(t, m.Stats()),
	})
}

// TestRunWindowsBuildJobsOnce: a machine running five 40-batch windows,
// re-planned between them — once onto a quarter of the chip, which splits
// moe into three segments instead of two — builds jobs only in its first
// window, and only as many as that window keeps in flight: every segment
// of every later window, under every plan, runs on the pooled shells.
func TestRunWindowsBuildJobsOnce(t *testing.T) {
	const window = 40
	var built []int
	runWindows(t, 32, window, []hw.TileMask{"", "", quarterChip(), "", ""}, func(w int, m *Machine) {
		built = append(built, m.jobsBuilt)
		t.Logf("window %d: %d segments, %d jobs built so far, %d pooled", w, len(m.plan.Segments), m.jobsBuilt, len(m.free))
	})
	if built[0] != window {
		t.Errorf("first window built %d jobs, want %d (one per batch in flight)", built[0], window)
	}
	for w := 1; w < len(built); w++ {
		if built[w] != built[0] {
			t.Errorf("window %d built %d more jobs; want none after the first window", w, built[w]-built[0])
		}
	}
}
