package serve

import (
	"math"

	"repro/internal/graph"
	"repro/internal/workload"
)

// Request is one timestamped admission unit.
type Request struct {
	// ID identifies the request in the outcome log and the trace events.
	ID int
	// Arrival is the request's arrival time in machine cycles.
	Arrival int64
	// Samples is the request's size for batch-cap and queue-cap accounting
	// (derived from Units for replayed requests when left zero).
	Samples int
	// Units and Routing are set for replayed requests whose routing decisions
	// were recorded offline: they execute as their own batch. Synthetic
	// requests leave Routing nil and have routing generated at
	// batch-formation time, once the batch's actual size is known.
	Units   int
	Routing graph.BatchRouting
	// Density is the request's density dyn-value in (0,1] for pre-routed
	// requests (replay, fleet); zero means unset — batch formation draws a
	// density from the generator instead (when it implements
	// workload.DensityGen), or the batch runs dense.
	Density float64
}

// Source produces the timestamped request stream a Server admits. Requests
// must be returned in non-decreasing Arrival order.
type Source interface {
	// Next returns the next request; ok=false ends the stream.
	Next() (req Request, ok bool)
}

// Synthetic is a Poisson arrival process over single-sample requests, with an
// optionally drifting arrival rate (a bounded random walk multiplier, the
// same non-stationarity model the routing generators use). All randomness
// comes from its own deterministic source, so two Synthetic streams built
// with the same parameters are identical — the server comparisons in the
// evaluation rely on that.
type Synthetic struct {
	n, limit int
	clock    float64
	meanGap  float64
	src      *workload.Source
	rate     *workload.Drift
}

// NewSynthetic returns a stream of `requests` single-sample requests with
// exponential interarrival gaps of the given mean. rate, when non-nil,
// multiplies the arrival rate per request (values > 1 mean bursts); nil keeps
// the process stationary.
func NewSynthetic(requests int, meanGapCycles float64, seed int64, rate *workload.Drift) *Synthetic {
	return &Synthetic{limit: requests, meanGap: meanGapCycles, src: workload.NewSource(seed), rate: rate}
}

// Next implements Source.
func (s *Synthetic) Next() (Request, bool) {
	if s.n >= s.limit {
		return Request{}, false
	}
	mult := 1.0
	if s.rate != nil {
		if m := s.rate.Step(s.src); m > 0.01 {
			mult = m
		} else {
			mult = 0.01
		}
	}
	s.clock += -math.Log(1-s.src.Float64()) * s.meanGap / mult
	req := Request{ID: s.n, Arrival: int64(s.clock), Samples: 1}
	s.n++
	return req, true
}

// Replay turns a recorded routing trace into a request stream: each recorded
// batch becomes one pre-routed request (its routing decisions are fixed, so
// it cannot be re-batched with others) arriving after an exponential gap.
type Replay struct {
	batches []workload.Batch
	i       int
	clock   float64
	meanGap float64
	src     *workload.Source
}

// NewReplay builds a replay stream from a recording of graph g's model. The
// server must have been brought up for the recording's model and batch size.
func NewReplay(g *graph.Graph, rec *workload.Recording, meanGapCycles float64, seed int64) (*Replay, error) {
	bs, err := rec.Replay(g)
	if err != nil {
		return nil, err
	}
	return &Replay{batches: bs, meanGap: meanGapCycles, src: workload.NewSource(seed)}, nil
}

// Next implements Source.
func (r *Replay) Next() (Request, bool) {
	if r.i >= len(r.batches) {
		return Request{}, false
	}
	b := r.batches[r.i]
	r.clock += -math.Log(1-r.src.Float64()) * r.meanGap
	req := Request{ID: r.i, Arrival: int64(r.clock), Units: b.Units, Routing: b.Routing, Density: b.Density}
	r.i++
	return req, true
}
