package sched

// KeyedProfileStats is the single source of truth tying the scheduler's
// profile inputs to the plan-cache fingerprint. Each key names a
// profiler.Profiler method that Schedule (or a helper on its call path)
// reads; the value names the profiler statistic family the plancache.Keyer
// fingerprint must cover so that two profiles producing different plans can
// never collide on one cache key. A sched source scan test keeps the key set
// in sync with the code, and a plancache regression test asserts the
// fingerprint actually distinguishes profiles along every listed family.
var KeyedProfileStats = map[string]string{
	// Batches gates every profile-dependent branch of the scheduler.
	"Batches": "Batches",
	// branchLoadShare caps branch utilization by activation frequency.
	"BranchActiveFraction": "BranchActiveFraction",
	// Frequency-weighted allocation, branchLoadShare and multi-kernel
	// sampling read each dynamic operator's frequency table (total plus
	// full distribution).
	"Freq": "Freq",
	// pickSharePair pairs the least co-active branches; the pair choice is a
	// pure function of the co-activation counters.
	"LeastCoActivePair": "CoActivation",
	// planSegment deflates density-aware entities by the windowed density
	// mean (the data-dependent sparsity axis).
	"OpDensityMean": "OpDensityMean",
}
