package fleet

import (
	"fmt"
	"testing"
)

// BenchmarkRouterDecide measures the per-request routing overhead of each
// policy on a warm 4-replica fleet: what the router layer itself costs,
// excluding simulation time. Affinity pays for the request fingerprint
// (quantize + per-replica distance); rr and jsq are cursor and depth scans.
// BenchmarkFleetServe times the whole fleet-scale serving loop — the
// parallel engine's unit of work — at several worker counts on the headline
// scenario (4 replicas, drifting 3-class mix, shared plan cache, affinity
// routing). workers=1 is the legacy sequential sweep; workers>1 steps
// replicas concurrently, one runner.Map window per router step. Results are
// byte-identical at every worker count (TestFleetParallelEquivalenceHeadline
// proves it), so the only thing that may change here is wall-clock: CI's
// bench-smoke job runs this at GOMAXPROCS 1 vs 4 and reports the ratio.
// Speedup tracks real cores — on a single-core host the parallel path
// honestly costs a few percent of coordination overhead instead.
func BenchmarkFleetServe(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := headlineConfig(PolicyAffinity)
				cfg.Workers = workers
				f, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				src, err := NewMixSource(headlineMix())
				if err != nil {
					b.Fatal(err)
				}
				rep, err := f.Serve(src)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Requests != headlineMix().Requests {
					b.Fatalf("lost requests: %d of %d", rep.Requests, headlineMix().Requests)
				}
			}
		})
	}
}

func BenchmarkRouterDecide(b *testing.B) {
	for _, pol := range Policies() {
		b.Run(pol.String(), func(b *testing.B) {
			base := fleetBase("moe")
			base.PlanCache = true
			cfg := headlineConfig(pol)
			cfg.Base = base
			f, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range f.reps {
				r.srv.Begin()
			}
			src, err := NewMixSource(headlineMix())
			if err != nil {
				b.Fatal(err)
			}
			var reqs []request
			for i := 0; i < 64; i++ {
				rq, ok := src.Next()
				if !ok {
					b.Fatal("mix source ran dry")
				}
				reqs = append(reqs, request{req: rq})
			}
			elig := f.eligible()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, _ := f.decide(reqs[i%len(reqs)], elig)
				if idx < 0 {
					b.Fatal("no replica chosen")
				}
			}
		})
	}
}

// BenchmarkFleetBringup measures fleet.New on the headline four-replica
// fleet: every replica's machine, warmup profile and bring-up solve. The
// replicas share one compiler, so searches/op is one replica's kernel count.
func BenchmarkFleetBringup(b *testing.B) {
	b.ReportAllocs()
	var searches int64
	for i := 0; i < b.N; i++ {
		f, err := New(headlineConfig(PolicyAffinity))
		if err != nil {
			b.Fatal(err)
		}
		_, n := f.reps[0].srv.Setup().Comp.Stats()
		searches += n
	}
	b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
}
