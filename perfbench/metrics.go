package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root carries the same names and units; the smoke test keeps them in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them (see README.md for what each
// means on the offline matrix versus the serving workloads).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_req_per_s", "req/s"},
	{"sim_batch_per_s", "batch/s"},
	{"live_heap_p90_mb", "MiB"},
	{"p50_cycles", "cycles"},
	{"p99_cycles", "cycles"},
}

// hostLayers are the host-time attribution buckets of the CPU profile, in
// report order. layerOf maps each repository package to its bucket; packages
// not listed fall into "other" together with the benchmark's own code. "gc"
// is garbage collection and "goswitch" the Go scheduler switching
// goroutines, which in this program are almost all simulator processes
// handing off to one another.
var hostLayers = []string{
	"sim", "accel", "noc", "costmodel", "sched", "profiler", "workload",
	"plancache", "serve", "fleet", "mtserve", "gc", "goswitch", "other",
}

var layerOf = map[string]string{
	"sim":       "sim",
	"accel":     "accel",
	"mem":       "accel",
	"kernels":   "accel",
	"hw":        "accel",
	"tensor":    "accel",
	"noc":       "noc",
	"costmodel": "costmodel",
	"sched":     "sched",
	"sampling":  "sched",
	"profiler":  "profiler",
	"workload":  "workload",
	"models":    "workload",
	"graph":     "workload",
	"plancache": "plancache",
	"serve":     "serve",
	"fleet":     "fleet",
	"mtserve":   "mtserve",
}

// perLayer are the metrics of single layers, reported by the traced run. A
// layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.cpu_s", "s"},
		{"host.trace_overhead_x", "x"},
		{"host.allocs_per_req", "count"},
		{"host.alloc_mb_per_req", "MiB"},
		{"host.gc_cycles", "count"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l + "_share", "fraction"})
	}
	return append(defs, []metricDef{
		{"accel.pe_util", "fraction"},
		{"accel.hbm_util", "fraction"},
		{"accel.useful_mac_ratio", "fraction"},
		{"accel.kernel_selections_per_batch", "count"},
		{"accel.noc_byte_hops_per_batch", "bytes"},
		{"accel.hbm_bytes_per_batch", "bytes"},
		{"costmodel.hits", "count"},
		{"costmodel.misses", "count"},
		{"costmodel.hit_rate", "fraction"},
		{"plancache.exact", "count"},
		{"plancache.nearest", "count"},
		{"plancache.misses", "count"},
		{"plancache.hit_rate", "fraction"},
		{"plancache.aot_entries", "count"},
		{"plancache.shared_hits", "count"},
		{"plancache.evictions", "count"},
		{"sched.solves", "count"},
		{"serve.batches", "count"},
		{"serve.samples_per_batch", "samples"},
		{"serve.reschedules", "count"},
		{"serve.drift_max_divergence", "fraction"},
		{"slo_miss_rate", "fraction"},
		{"virt.latency_samples", "count"},
		{"virt.reconfig_share", "fraction"},
		{"virt.host_solve_share", "fraction"},
		{"virt.tile_busy_share", "fraction"},
		{"virt.noc_busy_share", "fraction"},
		{"virt.hbm_busy_share", "fraction"},
		{"fleet.routed_max_share", "fraction"},
		{"fleet.reroutes", "count"},
		{"fleet.mean_affinity_dist", "fraction"},
		{"fleet.replans", "count"},
		{"mtserve.repartitions", "count"},
		{"mtserve.reschedules", "count"},
		{"mtserve.worst_tenant_p99_cycles", "cycles"},
		{"mtserve.reconfig_cycles", "cycles"},
		{"runner.straggler_share", "fraction"},
		{"runner.worker_util", "fraction"},
		{"adyna_speedup_x", "x"},
		{"paper_gap_pct", "%"},
	}...)
}()
