package serve

// Snapshot is the machine-readable counters endpoint: a point-in-time export
// of the server's monotonic counters and instantaneous gauges, rendered as
// JSON by cmd/serve -stats-json. Counters only ever increase over a server's
// lifetime (requests, bytes, cycles); gauges are current values that move in
// either direction (queue depth, utilization, divergence). Keys are stable
// snake_case strings so downstream tooling can scrape them.
type Snapshot struct {
	// Counters are monotonic totals (requests, bytes, cycles, reschedules).
	Counters map[string]int64 `json:"counters"`
	// Gauges are instantaneous values (queue depth, utilizations, divergence).
	Gauges map[string]float64 `json:"gauges"`
}

// Snapshot exports the server's current counters and gauges. Safe to call at
// any point in a server's life: before the first Serve call the request
// counters are simply zero. The snapshot covers both the serving layer
// (request outcomes, batches, re-schedules, queue state) and the machine
// under it (cycles, MACs, memory and NoC traffic, reconfigurations,
// utilizations).
func (s *Server) Snapshot() Snapshot {
	m := s.setup.M
	ms := m.Stats()
	c := map[string]int64{
		"machine_cycles":            ms.Cycles,
		"machine_batches":           int64(ms.Batches),
		"machine_macs":              ms.MACs,
		"machine_useful_macs":       ms.UsefulMACs,
		"machine_sram_bytes":        ms.SRAMBytes,
		"machine_hbm_bytes":         ms.HBMBytes,
		"machine_noc_byte_hops":     ms.NoCByteHops,
		"machine_reconfig_cycles":   ms.ReconfigCycles,
		"machine_reconfigs":         int64(ms.Reconfigs),
		"machine_kernel_selections": ms.KernelSelections,
	}
	g := map[string]float64{
		"queue_depth_samples": float64(s.batcher.Samples()),
		"queue_len_requests":  float64(s.batcher.Len()),
		"pe_utilization":      m.PEUtilization(),
		"hbm_utilization":     m.HBMUtilization(),
		"drift_divergence":    s.det.Divergence(),
	}
	if s.pcache != nil {
		st := s.pcache.Stats()
		c["plan_cache_exact_hits"] = st.ExactHits
		c["plan_cache_nearest_hits"] = st.NearestHits
		c["plan_cache_misses"] = st.Misses
		c["plan_cache_evictions"] = st.Evictions
		g["plan_cache_entries"] = float64(st.Entries)
		g["plan_cache_aot_entries"] = float64(st.AOTEntries)
	}
	if s.rep != nil {
		c["requests_total"] = int64(s.rep.Requests)
		c["requests_served"] = int64(s.rep.Served)
		c["requests_missed"] = int64(s.rep.Missed)
		c["requests_shed"] = int64(s.rep.Shed)
		c["batches"] = int64(s.rep.Batches)
		c["reschedules"] = int64(s.rep.Reschedules)
		c["fault_events"] = int64(s.rep.FaultEvents)
		c["health_reschedules"] = int64(s.rep.HealthReschedules)
		c["reschedule_reconfig_cycles"] = s.rep.ReconfigCycles
		c["host_solve_cycles"] = s.rep.HostSolveCycles
		g["shed_rate"] = s.rep.ShedRate()
		g["miss_rate"] = s.rep.MissRate()
		g["max_divergence"] = s.rep.MaxDivergence
	}
	return Snapshot{Counters: c, Gauges: g}
}
