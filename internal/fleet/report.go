package fleet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// ReplicaReport is one replica's slice of a fleet run.
type ReplicaReport struct {
	// Name identifies the replica; Routed counts the router's dispatches to
	// it (recorded outcomes can differ when its backlog was evicted away).
	Name   string
	Routed int
	// Report is the replica's own serving report.
	Report *serve.Report
}

// Report is the merged outcome of one Fleet.Serve call.
type Report struct {
	// Policy is the routing policy the run used.
	Policy Policy
	// Counters roll up the replicas' session reports (serve.Rollup): a
	// re-routed request is recorded exactly once, on the replica that finally
	// handled (or shed) it, and Latency pools every executed request in the
	// fleet — the aggregate the three-policy comparison ranks on. Replica-
	// level faults never re-plan (they re-route), so HealthReschedules counts
	// chip-level fault re-plans only.
	serve.Counters
	// SharedPlanHits counts shared-cache hits on entries another replica
	// solved — the cross-replica reuse a shared cache buys.
	SharedPlanHits int64
	// Reroutes counts requests evicted from failed replicas and re-routed;
	// ReplicaFailures and ReplicaRepairs count replica-level fault events.
	Reroutes, ReplicaFailures, ReplicaRepairs int
	// ScaleUps and ScaleDowns count elastic scaling moves.
	ScaleUps, ScaleDowns int
	// MeanAffinityDist averages the affinity policy's chosen request-to-plan
	// distances (0 under other policies).
	MeanAffinityDist float64
	// Replicas holds the per-replica reports, in canonical (sorted) order.
	Replicas []ReplicaReport
}

// finish closes every replica session and rolls up the per-replica reports.
func (f *Fleet) finish() *Report {
	rep := &Report{
		Policy:          f.cfg.Policy,
		Reroutes:        f.rerouted,
		ReplicaFailures: f.failures,
		ReplicaRepairs:  f.repairs,
		ScaleUps:        f.scaleUps,
		ScaleDowns:      f.scaleDowns,
	}
	if f.affinityDecisions > 0 {
		rep.MeanAffinityDist = f.affinityDistSum / float64(f.affinityDecisions)
	}
	sessions := make([]*serve.Report, len(f.reps))
	for i, r := range f.reps {
		sessions[i] = r.srv.Finish()
		rep.Replicas = append(rep.Replicas, ReplicaReport{Name: r.name, Routed: r.routed, Report: sessions[i]})
	}
	rep.Counters = serve.Rollup(sessions)
	if f.cache != nil {
		rep.SharedPlanHits = f.cache.Stats().SharedHits
	}
	return rep
}

// String renders the fleet report as the table cmd/serve prints.
func (r *Report) String() string {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Fleet report: %d replicas, %s routing", len(r.Replicas), r.Policy),
		Columns: []string{"Metric", "Value"},
	}
	t.AddRow("requests", fmt.Sprint(r.Requests))
	t.AddRow("served", fmt.Sprint(r.Served))
	t.AddRow("deadline-missed", fmt.Sprint(r.Missed))
	t.AddRow("shed", fmt.Sprint(r.Shed))
	t.AddRow("batches", fmt.Sprint(r.Batches))
	t.AddRow("reschedules", fmt.Sprint(r.Reschedules))
	if n := r.PlanCacheExact + r.PlanCacheNearest + r.PlanCacheMisses; n > 0 {
		t.AddRow("plan-cache hits", fmt.Sprintf("%d exact + %d nearest / %d re-plans",
			r.PlanCacheExact, r.PlanCacheNearest, n))
		t.AddRow("shared-plan hits", fmt.Sprint(r.SharedPlanHits))
	}
	if r.ReplicaFailures > 0 || r.Reroutes > 0 {
		t.AddRow("replica failures", fmt.Sprint(r.ReplicaFailures))
		t.AddRow("replica repairs", fmt.Sprint(r.ReplicaRepairs))
		t.AddRow("reroutes", fmt.Sprint(r.Reroutes))
	}
	if r.ScaleUps > 0 || r.ScaleDowns > 0 {
		t.AddRow("scale-ups", fmt.Sprint(r.ScaleUps))
		t.AddRow("scale-downs", fmt.Sprint(r.ScaleDowns))
	}
	if r.Policy == PolicyAffinity {
		t.AddRow("mean affinity dist", metrics.F(r.MeanAffinityDist, 4))
	}
	t.AddRow("latency p50 (cycles)", metrics.F(r.Latency.P50, 0))
	t.AddRow("latency p95 (cycles)", metrics.F(r.Latency.P95, 0))
	t.AddRow("latency p99 (cycles)", metrics.F(r.Latency.P99, 0))
	t.AddRow("final clock (cycles)", fmt.Sprint(r.FinalCycles))
	for _, rr := range r.Replicas {
		t.AddRow("replica "+rr.Name,
			fmt.Sprintf("routed %d, served %d, replans %d", rr.Routed, rr.Report.Served,
				rr.Report.Reschedules+rr.Report.HealthReschedules))
	}
	return t.String()
}

// Snapshot exports the fleet's counters: router totals, fault-domain and
// scaling events, shared-cache statistics, and each replica's own snapshot
// under its name. Keys are stable snake_case, mirroring serve.Snapshot.
type Snapshot struct {
	// Counters are the fleet-level monotonic totals.
	Counters map[string]int64 `json:"counters"`
	// Replicas holds each replica's serve-layer snapshot, by name.
	Replicas map[string]serve.Snapshot `json:"replicas"`
}

// Snapshot exports the fleet's current counters. Safe at any point in the
// fleet's life; before Serve the totals are simply zero.
func (f *Fleet) Snapshot() Snapshot {
	c := map[string]int64{
		"routed_total":     int64(f.routed),
		"reroutes":         int64(f.rerouted),
		"replica_failures": int64(f.failures),
		"replica_repairs":  int64(f.repairs),
		"scale_ups":        int64(f.scaleUps),
		"scale_downs":      int64(f.scaleDowns),
	}
	active, down := int64(0), int64(0)
	for _, r := range f.reps {
		if r.active {
			active++
		}
		if r.down {
			down++
		}
	}
	c["replicas"] = int64(len(f.reps))
	c["replicas_active"] = active
	c["replicas_down"] = down
	if f.cache != nil {
		st := f.cache.Stats()
		c["plan_cache_entries"] = int64(st.Entries)
		c["plan_cache_exact_hits"] = st.ExactHits
		c["plan_cache_nearest_hits"] = st.NearestHits
		c["plan_cache_misses"] = st.Misses
		c["plan_cache_shared_hits"] = st.SharedHits
	}
	reps := make(map[string]serve.Snapshot, len(f.reps))
	for _, r := range f.reps {
		reps[r.name] = r.srv.Snapshot()
	}
	return Snapshot{Counters: c, Replicas: reps}
}
