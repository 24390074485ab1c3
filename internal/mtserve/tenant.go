package mtserve

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hw"
)

// Tenant describes one co-resident model and its request stream: which
// workload it runs, its per-request deadline, and the Poisson arrival
// process of its traffic. The zero value of every field has a serving
// default, so a spec as short as "moe" is complete.
type Tenant struct {
	// Name identifies the tenant in reports and telemetry tracks. Defaults
	// to the model name, deduplicated with an index suffix when the same
	// model serves several tenants.
	Name string
	// Model is the workload (see models.Names); the only mandatory field.
	Model string
	// SLOCycles is the per-request completion deadline measured from arrival
	// (0 disables deadline accounting for this tenant).
	SLOCycles int64
	// MaxWaitCycles is the tenant's queue-wait deadline (0 derives SLO/4,
	// or 100k cycles without an SLO — the serve.Config rule).
	MaxWaitCycles int64
	// MeanGapCycles is the mean interarrival gap of the tenant's Poisson
	// stream.
	MeanGapCycles float64
	// Requests is the stream length.
	Requests int
	// Priority orders tenants when several could fire on the shared clock
	// (higher wins). Equal priorities fall back to deadline urgency.
	Priority int
	// RateWalkSD, when positive, drifts the arrival rate as a bounded random
	// walk with this per-request standard deviation (values > 1 mean
	// bursts).
	RateWalkSD float64
	// RateBias recenters the rate walk: the walk reverts toward this
	// multiplier instead of 1, so the tenant's offered load ramps toward
	// RateBias× over the stream (0 keeps the walk centered at 1). Only
	// meaningful with RateWalkSD > 0.
	RateBias float64
	// RateRevert is the rate walk's per-request pull toward its center
	// (0 keeps the workload default). Smaller values ramp the tenant's
	// offered load over more requests.
	RateRevert float64
	// Weight overrides the demand prior used for the initial tile split
	// (0 derives it from the model's worst-case work per arrival cycle).
	Weight float64
	// Seed offsets the tenant's arrival stream seed (0 derives one from the
	// tenant index, keeping streams identical across serving modes).
	Seed int64
}

// ParseSpec parses the -tenants command-line syntax:
//
//	spec   = tenant ( "," tenant )*
//	tenant = model ( ":" param )*
//	param  = key "=" value
//	key    = "slo" | "gap" | "wait" | "req" | "prio" | "walk" | "bias"
//	       | "revert" | "weight" | "name" | "seed"
//
// Cycle-valued parameters (slo, wait, gap, seed) take hw.ParseCycles syntax:
// integers, scientific notation and k/M/G suffixes ("slo=5M", "gap=3e4").
// slo, wait, gap, req, walk, bias, revert and weight must be finite and
// non-negative.
// Example:
//
//	moe:slo=5M:gap=30k,skipnet:slo=8M:gap=60k:prio=1
//
// def supplies defaults for fields a tenant omits (its Model and Name are
// ignored).
func ParseSpec(spec string, def Tenant) ([]Tenant, error) {
	var out []Tenant
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t, err := parseTenant(part, def)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mtserve: empty tenant spec %q", spec)
	}
	nameTenants(out)
	return out, nil
}

func parseTenant(part string, def Tenant) (Tenant, error) {
	fields := strings.Split(part, ":")
	t := def
	t.Model = strings.TrimSpace(fields[0])
	t.Name = ""
	if t.Model == "" {
		return Tenant{}, fmt.Errorf("mtserve: tenant %q has no model", part)
	}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok {
			return Tenant{}, fmt.Errorf("mtserve: parameter %q needs key=value", f)
		}
		var err error
		switch key {
		case "slo":
			t.SLOCycles, err = parseNonNegativeCycles(key, val)
		case "wait":
			t.MaxWaitCycles, err = parseNonNegativeCycles(key, val)
		case "gap":
			var gap int64
			gap, err = parseNonNegativeCycles(key, val)
			t.MeanGapCycles = float64(gap)
		case "req":
			if t.Requests, err = strconv.Atoi(val); err == nil {
				err = hw.CheckNonNegative(key, t.Requests)
			}
		case "prio":
			t.Priority, err = strconv.Atoi(val)
		case "walk":
			t.RateWalkSD, err = parseNonNegative(key, val)
		case "bias":
			t.RateBias, err = parseNonNegative(key, val)
		case "revert":
			t.RateRevert, err = parseNonNegative(key, val)
		case "weight":
			t.Weight, err = parseNonNegative(key, val)
		case "name":
			t.Name = val
		case "seed":
			t.Seed, err = hw.ParseCycles(val)
		default:
			return Tenant{}, fmt.Errorf("mtserve: unknown parameter %q in tenant %q", key, part)
		}
		if err != nil {
			return Tenant{}, fmt.Errorf("mtserve: parameter %q: %w", f, err)
		}
	}
	return t, nil
}

// parseNonNegativeCycles parses a cycle-valued tenant parameter, rejecting
// negative counts.
func parseNonNegativeCycles(key, val string) (int64, error) {
	v, err := hw.ParseCycles(val)
	if err == nil {
		err = hw.CheckNonNegative(key, v)
	}
	return v, err
}

// parseNonNegative parses a float tenant parameter, rejecting NaN, the
// infinities and negative values.
func parseNonNegative(key, val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err == nil {
		err = hw.CheckNonNegative(key, v)
	}
	return v, err
}

// nameTenants fills empty names with the model name, suffixing duplicates
// ("moe", "moe-2", ...) so telemetry recorder names stay unique.
func nameTenants(ts []Tenant) {
	seen := map[string]int{}
	for i := range ts {
		name := ts[i].Name
		if name == "" {
			name = ts[i].Model
		}
		seen[name]++
		if n := seen[name]; n > 1 {
			name = fmt.Sprintf("%s-%d", name, n)
		}
		ts[i].Name = name
	}
}
