// Package sched implements Adyna's dynamism-aware dataflow scheduler
// (Section V): graph segmentation, frequency-weighted tile allocation,
// operator pipelining, tile sharing, branch grouping and multi-kernel
// planning. The same code schedules the baselines by switching off the
// corresponding policy bits, exactly as the paper's ablations do.
package sched

import "fmt"

// Policy selects which scheduling mechanisms are active. The presets below
// correspond to the designs the paper compares in Figure 9.
type Policy struct {
	// FrequencyWeighted allocates tiles by the expected (profile-weighted)
	// dyn value instead of the worst-case maximum (Section V-A).
	FrequencyWeighted bool
	// MultiKernel keeps several kernels per dynamic operator and selects by
	// actual dyn value (Section VI-B). When false a single worst-case kernel
	// is compiled.
	MultiKernel bool
	// FullKernel is the idealized upper bound: a kernel exists for every
	// possible dyn value (compiled on demand and memoized).
	FullKernel bool
	// RuntimeFitting lets the instruction issuer skip iterations beyond the
	// actual dyn value (Section VI-B).
	RuntimeFitting bool
	// TileSharing precompiles the three-ratio shared allocations of Section
	// V-B and lets the runtime pick per batch.
	TileSharing bool
	// BranchGrouping executes rarely-activated branches on the same tiles
	// temporally (Section V-B).
	BranchGrouping bool
	// KernelBudget caps the sampled kernel values per operator (paper: ~32
	// after tile sharing). Zero uses the hardware default.
	KernelBudget int
	// GroupThreshold is the branch activation frequency below which branch
	// grouping kicks in.
	GroupThreshold float64
	// ResamplePeriod is the reconfiguration interval in batches (paper: 40).
	ResamplePeriod int
	// ResampleIters bounds Algorithm 1's improvement steps per report.
	ResampleIters int
}

// Validate rejects contradictory policies.
func (p Policy) Validate() error {
	if p.FullKernel && !p.MultiKernel {
		return fmt.Errorf("sched: FullKernel requires MultiKernel")
	}
	if p.TileSharing && !p.MultiKernel {
		return fmt.Errorf("sched: TileSharing requires MultiKernel (shared tiles hold both operators' kernels)")
	}
	if !(p.GroupThreshold >= 0 && p.GroupThreshold <= 1) { // NaN fails both
		return fmt.Errorf("sched: GroupThreshold %v outside [0,1]", p.GroupThreshold)
	}
	return nil
}

// Adyna returns the full Adyna policy: everything on.
func Adyna() Policy {
	return Policy{
		FrequencyWeighted: true,
		MultiKernel:       true,
		RuntimeFitting:    true,
		TileSharing:       true,
		BranchGrouping:    true,
		GroupThreshold:    0.15,
		ResamplePeriod:    40,
		ResampleIters:     16,
	}
}

// AdynaStatic returns the Adyna (static) setting of the paper: multi-kernel
// execution, dynamic routing and frequency-weighted scheduling from an
// initial profile, but no runtime re-sampling or tile sharing.
func AdynaStatic() Policy {
	p := Adyna()
	p.TileSharing = false
	p.ResamplePeriod = 0 // never re-schedule
	return p
}

// MTile returns the baseline multi-tile policy: static worst-case
// scheduling, one kernel per operator, no fitting, no runtime adjustment.
func MTile() Policy {
	return Policy{
		FrequencyWeighted: false,
		MultiKernel:       false,
		RuntimeFitting:    false,
		TileSharing:       false,
		BranchGrouping:    false,
		GroupThreshold:    0,
		ResamplePeriod:    0,
	}
}

// FullKernelIdeal returns the idealized full-kernel setting: Adyna's runtime
// adjustment with an unbounded kernel store.
func FullKernelIdeal() Policy {
	p := Adyna()
	p.FullKernel = true
	return p
}
