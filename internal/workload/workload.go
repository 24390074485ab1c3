// Package workload provides deterministic random sources and the
// distribution machinery behind the synthetic routing traces that substitute
// for the paper's ImageNet/GLUE inference runs.
//
// Adyna's mechanisms (frequency-weighted allocation, tile sharing, branch
// grouping, multi-kernel sampling, periodic re-scheduling) react only to the
// distribution and temporal variation of dyn_dim values, never to tensor
// contents. The generators here therefore parameterize exactly those
// statistics: per-branch activation probabilities, their batch-to-batch
// variance, load skew across branches, and slow temporal drift that the
// paper notes ([13], [25]) and that triggers kernel re-sampling.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Source is a deterministic pseudo-random source. All trace generation flows
// from one Source so that every experiment is reproducible bit-for-bit.
type Source struct {
	rng *rand.Rand
	// topk is AppendTopK's working copy of the weights, reused across calls.
	topk []float64
}

// NewSource returns a source seeded deterministically.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// NormFloat64 returns a standard normal value.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Bernoulli reports true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rng.Float64() < p }

// PermInto returns a random permutation of [0, n) in buf's array, which it
// replaces with a new one when it holds fewer than n elements. It draws the
// same Intn(i+1) sequence as rand.Perm, so it returns the same permutation
// and leaves the source in the same state; a caller that passes its
// previous result back as buf draws without allocating.
func (s *Source) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := 0; i < n; i++ {
		j := s.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// ClampInt limits v to [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp01 limits p to [0, 1].
func Clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NormInt draws a normally distributed integer with the given mean and
// standard deviation, clamped to [lo, hi].
func (s *Source) NormInt(mean, sd float64, lo, hi int) int {
	v := int(math.Round(s.rng.NormFloat64()*sd + mean))
	return ClampInt(v, lo, hi)
}

// JitterProb perturbs a base probability with normal noise of the given
// standard deviation, clamped to [0, 1]. It models the per-batch variation
// visible in the paper's Figure 6 trace.
func (s *Source) JitterProb(base, sd float64) float64 {
	return Clamp01(base + s.rng.NormFloat64()*sd)
}

// Drift is a bounded random walk, modelling the slow shifts in value
// distributions over time that make periodic re-sampling worthwhile.
type Drift struct {
	// Value is the walk's current position, clamped to [Lo, Hi].
	Value  float64
	Lo, Hi float64
	// StepSD is the per-step Gaussian standard deviation.
	StepSD    float64
	Reverting float64 // pull-back strength toward Center per step
	// Center is where the walk started and what Reverting pulls toward.
	Center float64
}

// NewDrift returns a random walk starting at center.
func NewDrift(center, lo, hi, stepSD float64) *Drift {
	return &Drift{Value: center, Lo: lo, Hi: hi, StepSD: stepSD, Reverting: 0.02, Center: center}
}

// Step advances the walk one batch and returns the new value.
func (d *Drift) Step(s *Source) float64 {
	d.Value += s.rng.NormFloat64()*d.StepSD + d.Reverting*(d.Center-d.Value)
	if d.Value < d.Lo {
		d.Value = d.Lo
	}
	if d.Value > d.Hi {
		d.Value = d.Hi
	}
	return d.Value
}

// ZipfWeights returns n weights following a Zipf-like power law with
// exponent alpha, normalized to sum to 1. Expert/branch popularity in MoE and
// channel-group selection in dynamic-width models follow this kind of skew.
func ZipfWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// SampleCategorical draws an index from the given (not necessarily
// normalized) weight vector.
func (s *Source) SampleCategorical(weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	r := s.rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// AppendTopK draws k distinct indices from the weight vector, proportional to
// weight without replacement (the top-k expert gating of MoE models), and
// appends them to dst in ascending order; dst's existing elements are left
// as they are. When fewer than k weights are positive the draw stops once
// the remaining mass is exhausted, so it appends only the positive-weight
// indices — never a duplicate (SampleCategorical over an all-zero vector
// would otherwise return the last index over and over). A caller that
// passes its previous result back as dst[:0] draws without allocating.
func (s *Source) AppendTopK(dst []int, weights []float64, k int) []int {
	n := len(weights)
	if k > n {
		k = n
	}
	w := append(s.topk[:0], weights...)
	s.topk = w
	base := len(dst)
	for len(dst)-base < k {
		var mass float64
		for _, x := range w {
			if x > 0 {
				mass += x
			}
		}
		if mass <= 0 {
			break
		}
		i := s.SampleCategorical(w)
		if w[i] <= 0 {
			// Boundary fallback of SampleCategorical (r landed exactly on
			// the total mass): pick the first index still carrying weight.
			for j, x := range w {
				if x > 0 {
					i = j
					break
				}
			}
		}
		dst = append(dst, i)
		w[i] = 0
	}
	sort.Ints(dst[base:])
	return dst
}

// Batch is one generated inference batch: its unit count, the routing
// decision of every switch in the graph, and its density dyn-value.
type Batch struct {
	// Index is the batch's position in its trace; Units its dynamic unit
	// count; Routing every switch's branch decision for the batch.
	Index   int
	Units   int
	Routing graph.BatchRouting
	// Density is the batch's data-dependent sparsity in (0,1]: the fraction
	// of nominal work that is nonzero in the batch's density-aware operators.
	// Zero means unset and is treated as fully dense (1.0) everywhere, so
	// routing-only models never touch the axis.
	Density float64
}

// TraceGen produces the routing for successive batches of a specific model.
// Implementations are stateful (temporal drift advances batch by batch).
type TraceGen interface {
	// Next generates the routing for one batch of batchUnits units.
	Next(src *Source, batchUnits int) graph.BatchRouting
}

// DensityGen is the optional TraceGen extension for models with
// data-dependent sparsity: a generator that also draws each batch's density
// dyn-value. Callers type-assert, so routing-only generators are untouched.
type DensityGen interface {
	TraceGen
	// NextDensity draws the density of the next batch in (0,1]. Called once
	// per batch, after Next, from the same deterministic source.
	NextDensity(src *Source) float64
}

// Trace generates n consecutive batches from gen. Generators implementing
// DensityGen stamp each batch's density; others leave it unset (dense).
func Trace(gen TraceGen, src *Source, n, batchUnits int) []Batch {
	dg, _ := gen.(DensityGen)
	out := make([]Batch, n)
	for i := range out {
		out[i] = Batch{Index: i, Units: batchUnits, Routing: gen.Next(src, batchUnits)}
		if dg != nil {
			out[i].Density = dg.NextDensity(src)
		}
	}
	return out
}

// Validate checks every batch's routing against the graph, and that each
// batch's density is unset or in (0,1].
func Validate(g *graph.Graph, batches []Batch, exclusive bool) error {
	for _, b := range batches {
		if err := g.ValidateRouting(b.Units, b.Routing, exclusive); err != nil {
			return fmt.Errorf("workload: batch %d: %w", b.Index, err)
		}
		if b.Density < 0 || b.Density > 1 {
			return fmt.Errorf("workload: batch %d: density %v outside (0,1]", b.Index, b.Density)
		}
	}
	return nil
}
