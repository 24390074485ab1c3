package accel

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSharedFullKernelPlanConcurrent runs one full-kernel plan on two
// machines at once, one healthy and one at half HBM bandwidth, so their
// on-demand kernels are chosen at different rates through the plan's one
// compiler. Each machine's latencies and stats must equal those of the same
// machine running a freshly solved plan of its own. Under -race it is the
// audit that a shared plan carries no mutable state.
func TestSharedFullKernelPlanConcurrent(t *testing.T) {
	cfg := hw.Default()
	w, err := models.ByName("moe", 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := w.GenTrace(workload.NewSource(5), 6, 16)
	solve := func() *sched.Plan {
		plan, err := sched.Schedule(cfg, w.Graph, sched.FullKernelIdeal(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	type result struct {
		lat []BatchLatency
		st  Stats
	}
	run := func(plan *sched.Plan, hbm float64) (result, error) {
		m, err := New(cfg, w.Graph, Options{})
		if err != nil {
			return result{}, err
		}
		if err := m.SetCapability("", 1, hbm); err != nil {
			return result{}, err
		}
		if err := m.LoadPlan(plan); err != nil {
			return result{}, err
		}
		if err := m.Run(trace); err != nil {
			return result{}, err
		}
		return result{m.Latencies(), m.Stats()}, nil
	}

	rates := []float64{1, 0.5}
	shared := solve()
	got := make([]result, len(rates))
	errs := make([]error, len(rates))
	var wg sync.WaitGroup
	for i, hbm := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(shared, hbm)
		}()
	}
	wg.Wait()
	for i, hbm := range rates {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := run(solve(), hbm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("HBM at %v: the shared plan runs differently from a private one:\n got  %+v\n want %+v", hbm, got[i].st, want.st)
		}
	}
	if reflect.DeepEqual(got[0].st, got[1].st) {
		t.Fatal("the derated machine ran like the healthy one; the check compares nothing")
	}
}
