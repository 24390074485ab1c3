package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/workload"
)

// MixConfig parameterizes a MixSource. A numeric field left at zero takes
// its default; a negative or non-finite one is an error (see Validate).
type MixConfig struct {
	// Model is the served workload; every class routes through the same
	// graph shape.
	Model string
	// Classes is the number of traffic classes (default 3). Each class is
	// the model's own drifting routing generator with its branch choices
	// rotated by a class-specific stride, so classes exercise disjoint
	// branch populations at identical total work.
	Classes int
	// Requests bounds the stream; Samples sizes each request (default 8).
	// Samples must not exceed the serving batch size.
	Requests, Samples int
	// MeanGapCycles is the mean exponential interarrival gap.
	MeanGapCycles float64
	// Seed drives all of the source's randomness (arrivals, class mixture,
	// per-class routing) deterministically.
	Seed int64
	// MixWalkSD is the per-request random-walk step of the class mixture
	// weights (default 0.03) — the drifting arrival mix the plan-affinity
	// policy exploits and the blend-serving policies re-plan under.
	MixWalkSD float64
}

// mixFloor and mixCeil clamp the walking class weights, bounding how far
// any one class's arrival rate can swing.
const mixFloor, mixCeil = 0.05, 2

// Validate rejects a negative or non-finite numeric field, naming it.
func (c MixConfig) Validate() error {
	if err := errors.Join(
		hw.CheckNonNegative("Classes", c.Classes),
		hw.CheckNonNegative("Requests", c.Requests),
		hw.CheckNonNegative("Samples", c.Samples),
		hw.CheckNonNegative("MeanGapCycles", c.MeanGapCycles),
		hw.CheckNonNegative("MixWalkSD", c.MixWalkSD),
	); err != nil {
		return fmt.Errorf("fleet: mix source: %w", err)
	}
	return nil
}

func (c *MixConfig) defaults() {
	if c.Classes == 0 {
		c.Classes = 3
	}
	if c.Samples == 0 {
		c.Samples = 8
	}
	if c.MixWalkSD == 0 {
		c.MixWalkSD = 0.03
	}
	if c.MeanGapCycles == 0 {
		c.MeanGapCycles = 100_000
	}
}

// mixClass is one traffic class: a private instance of the model's routing
// generator (its own drift state and random stream) plus the branch
// rotation that separates this class's population from the others.
type mixClass struct {
	gen workload.TraceGen
	src *workload.Source
	rot int
}

// MixSource generates the fleet evaluation's request stream: Poisson
// arrivals of pre-routed requests drawn from a drifting mixture of traffic
// classes. Each request carries its class's routing (it executes as its own
// batch), so a replica's live profile reflects exactly the classes routed
// to it — the signal plan-affinity routing feeds on. Two MixSources built
// with the same config produce identical streams, which is what holds
// offered load equal across the three-policy comparison.
type MixSource struct {
	cfg     MixConfig
	classes []*mixClass
	weights []float64
	ups     int
	src     *workload.Source // arrivals + mixture only
	clock   float64
	n       int
}

// NewMixSource builds the stream. Every class instantiates the model
// fresh — identical graph shape, private generator state.
func NewMixSource(cfg MixConfig) (*MixSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	s := &MixSource{cfg: cfg, src: workload.NewSource(cfg.Seed)}
	for c := 0; c < cfg.Classes; c++ {
		w, err := models.ByName(cfg.Model, cfg.Samples)
		if err != nil {
			return nil, fmt.Errorf("fleet: mix source: %w", err)
		}
		if s.ups == 0 {
			s.ups = w.Graph.UnitsPerSample
			if s.ups <= 0 {
				s.ups = 1
			}
		}
		s.classes = append(s.classes, &mixClass{
			gen: w.Gen,
			src: workload.NewSource(cfg.Seed + int64(c+1)*7919),
			rot: c,
		})
		s.weights = append(s.weights, 1)
	}
	return s, nil
}

// Next implements serve.Source.
func (s *MixSource) Next() (serve.Request, bool) {
	if s.n >= s.cfg.Requests {
		return serve.Request{}, false
	}
	s.clock += -math.Log(1-s.src.Float64()) * s.cfg.MeanGapCycles
	// Drift the mixture: each class weight walks independently, floored so
	// no class ever vanishes entirely.
	for i := range s.weights {
		s.weights[i] += s.cfg.MixWalkSD * s.src.NormFloat64()
		if s.weights[i] < mixFloor {
			s.weights[i] = mixFloor
		}
		if s.weights[i] > mixCeil {
			s.weights[i] = mixCeil
		}
	}
	cls := s.classes[s.src.SampleCategorical(s.weights)]
	units := s.cfg.Samples * s.ups
	rt := rotateRouting(cls.gen.Next(cls.src, units), cls.rot, s.cfg.Classes)
	req := serve.Request{
		ID:      s.n,
		Arrival: int64(s.clock),
		Samples: s.cfg.Samples,
		Units:   units,
		Routing: rt,
	}
	// Density-aware models draw the request's density from the class's own
	// generator state, so classes drift apart in sparsity as well as routing —
	// the second axis plan-affinity routing can separate on.
	if dg, ok := cls.gen.(workload.DensityGen); ok {
		req.Density = dg.NextDensity(cls.src)
	}
	s.n++
	return req, true
}

// rotateRouting shifts every switch's branch assignment by the class
// rotation: class c's traffic lands on branches offset by c strides, where
// a stride spreads the classes across each switch's branch space. Work per
// unit is branch-symmetric in the models, so rotation separates the
// populations without changing total load.
func rotateRouting(rt graph.BatchRouting, class, classes int) graph.BatchRouting {
	if class == 0 {
		return rt
	}
	out := make(graph.BatchRouting, len(rt))
	for sw, routing := range rt {
		nb := len(routing.Branch)
		if nb == 0 {
			out[sw] = routing
			continue
		}
		stride := nb / classes
		if stride < 1 {
			stride = 1
		}
		shift := (class * stride) % nb
		branches := make([][]int, nb)
		for b, units := range routing.Branch {
			branches[(b+shift)%nb] = units
		}
		out[sw] = graph.Routing{Branch: branches}
	}
	return out
}
