// Package mem models the accelerator's off-chip memory: HBM2 stacks with
// per-stack bandwidth (Table III: 6 stacks, 1842 GB/s aggregate). Requests
// are interleaved across stacks; contention appears as queueing on the
// stacks.
//
// Interleaving gives every stack the same share of every request at the same
// rate, so the stacks always hold identical booking state and move in
// lockstep. The model therefore keeps one sim.Server at the per-stack rate
// standing for all of them: it books each request's per-stack share
// (ceil(n/stacks) bytes), which yields exactly the completion times and busy
// cycles of one server per stack.
//
// Bandwidth bookings are synchronous: Reserve mutates the stacks' shared
// sim.Server state (its free-at horizon and served-byte total) at
// the instant of the call, order-sensitively, and returns the arrival time
// without yielding. There is therefore no minimum latency between a tile
// process and the HBM, which is why a machine cannot be split into
// concurrently simulated shards (DESIGN.md "Parallel engine").
package mem

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// HBM is the off-chip memory model.
type HBM struct {
	env      *sim.Env
	stack    *sim.Server // one stack, standing for all of them (see the package doc)
	stacks   int
	baseRate float64 // per-stack bytes/cycle of the healthy chip
	// Accounting.
	readBytes, writeBytes int64
	// rec, when enabled, records every fetch/write-back as a span on track
	// (nil: recording disabled, zero overhead).
	rec   *telemetry.Recorder
	track telemetry.TrackID
}

// New builds the HBM model for cfg, running at cfg's HBM derate.
func New(env *sim.Env, cfg hw.Config) *HBM {
	healthy := cfg
	healthy.HBMDerate = 0
	h := &HBM{env: env, stacks: cfg.HBMStacks, baseRate: healthy.HBMStackBytesPerCycle()}
	h.stack = sim.NewServer(env, h.baseRate)
	h.Derate(cfg.HBMDerate)
	return h
}

// SetRecorder attaches a telemetry recorder: every fetch and write-back is
// recorded as a span covering queueing through drain, with a byte-count arg.
// A nil recorder disables recording at zero cost.
func (h *HBM) SetRecorder(rec *telemetry.Recorder) {
	h.rec = rec
	h.track = rec.Track("hbm")
}

// Derate sets every stack's bandwidth to factor times the healthy rate
// (fault injection: lost stacks or a degraded PHY). The factor is absolute,
// not relative to the current rate; 1 (or the config zero value 0) restores
// full bandwidth. Requests already in flight keep their completion times.
func (h *HBM) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	h.stack.SetRate(h.baseRate * factor)
}

// BytesPerCycle returns the live aggregate bandwidth across all stacks.
func (h *HBM) BytesPerCycle() float64 {
	return h.stack.Rate() * float64(h.stacks)
}

// Reserve books a read without blocking and returns its completion time
// (used for prefetching weights for the next segment and for streaming
// inputs overlapped with compute).
func (h *HBM) Reserve(n int64) sim.Time {
	if n <= 0 {
		return h.env.Now()
	}
	h.readBytes += n
	done := h.reserve(n)
	if h.rec.Enabled() {
		h.rec.Span(h.track, "hbm", "read", int64(h.env.Now()), int64(done), telemetry.I("bytes", n))
	}
	return done
}

// ReserveWrite books a write-back without blocking (the DMA drains output
// chunks while the PEs continue).
func (h *HBM) ReserveWrite(n int64) sim.Time {
	if n <= 0 {
		return h.env.Now()
	}
	h.writeBytes += n
	done := h.reserve(n)
	if h.rec.Enabled() {
		h.rec.Span(h.track, "hbm", "write", int64(h.env.Now()), int64(done), telemetry.I("bytes", n))
	}
	return done
}

// reserve books a request interleaved across all stacks: each stack serves
// its ceil(n/stacks)-byte share.
func (h *HBM) reserve(n int64) sim.Time {
	per := (n + int64(h.stacks) - 1) / int64(h.stacks)
	return h.stack.Reserve(per)
}

// TotalBytes returns read+write traffic so far.
func (h *HBM) TotalBytes() int64 { return h.readBytes + h.writeBytes }

// ReadBytes returns the read traffic so far.
func (h *HBM) ReadBytes() int64 { return h.readBytes }

// WriteBytes returns the write traffic so far.
func (h *HBM) WriteBytes() int64 { return h.writeBytes }

// BusyCycles returns the busy time of a stack, the same on every stack (the
// effective occupancy for bandwidth-utilization metrics).
func (h *HBM) BusyCycles() sim.Time { return h.stack.BusyCycles() }
