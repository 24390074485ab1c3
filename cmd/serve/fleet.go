package main

import (
	"fmt"
	"io"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// fleetOpts carries the fleet-mode flag values.
type fleetOpts struct {
	n        int
	replicas string
	route    string
	faultArg string
	classes  int
	scaleMin int
	walkSD   float64
	workers  int
}

func (o fleetOpts) enabled() bool { return o.n > 0 || o.replicas != "" }

// fleetConfig assembles a fleet.Config from the base server template and the
// fleet flags. The replica spec takes precedence over the plain count.
func fleetConfig(base serve.Config, o fleetOpts) (fleet.Config, error) {
	var specs []fleet.ReplicaSpec
	if o.replicas != "" {
		var err error
		specs, err = fleet.ParseSpec(o.replicas, base.RC.HW)
		if err != nil {
			return fleet.Config{}, err
		}
	} else {
		specs = fleet.HomogeneousSpecs(o.n, base.RC.HW)
	}
	pol, err := fleet.ParsePolicy(o.route)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Base:     base,
		Replicas: specs,
		Policy:   pol,
		ScaleMin: o.scaleMin,
		Workers:  o.workers,
	}
	if o.faultArg != "" {
		fs, err := loadFaults(o.faultArg)
		if err != nil {
			return fleet.Config{}, err
		}
		cfg.ReplicaFaults = fs
	}
	return cfg, nil
}

// fleetSource builds the drifting multi-class arrival mix the fleet serves.
// Built fresh per run from the same parameters, so every policy in a
// comparison sees an identical stream.
func fleetSource(model string, o fleetOpts, base serve.Config, requests int, gap float64, seed int64) (*fleet.MixSource, error) {
	return fleet.NewMixSource(fleet.MixConfig{
		Model:         model,
		Classes:       o.classes,
		Requests:      requests,
		Samples:       base.MaxBatch,
		MeanGapCycles: gap,
		Seed:          seed,
		MixWalkSD:     o.walkSD,
	})
}

// runFleet is the fleet-mode entry point: one routing policy, or all three
// on identical arrival streams under -compare.
func runFleet(w io.Writer, base serve.Config, o fleetOpts, requests int, gap float64, seed int64, compare bool, statsOut string) error {
	if !compare {
		cfg, err := fleetConfig(base, o)
		if err != nil {
			return err
		}
		f, err := fleet.New(cfg)
		if err != nil {
			return err
		}
		src, err := fleetSource(base.Model, o, base, requests, gap, seed)
		if err != nil {
			return err
		}
		rep, err := f.Serve(src)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep)
		if statsOut != "" {
			return writeJSON(statsOut, f.Snapshot())
		}
		return nil
	}
	reps := make([]*fleet.Report, 0, 3)
	for _, pol := range fleet.Policies() {
		c := o
		c.route = pol.String()
		cfg, err := fleetConfig(base, c)
		if err != nil {
			return err
		}
		// Distinct trace prefixes keep the three runs' recorders apart in a
		// shared -trace file.
		cfg.Base.RC.TraceName = "fleet/" + pol.String()
		f, err := fleet.New(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", pol, err)
		}
		src, err := fleetSource(base.Model, o, base, requests, gap, seed)
		if err != nil {
			return err
		}
		rep, err := f.Serve(src)
		if err != nil {
			return fmt.Errorf("%s: %w", pol, err)
		}
		reps = append(reps, rep)
		fmt.Fprintln(w, rep)
	}
	fmt.Fprintln(w, fleetCompareTable(reps[0], reps[1], reps[2]))
	return nil
}

// fleetCompareTable renders the three routing policies side by side, with
// plan-affinity's gain over each baseline as a ratio.
func fleetCompareTable(rr, jsq, aff *fleet.Report) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fleet routing policies (same replicas, same arrivals, same seed)",
		Columns: []string{"Metric", "rr", "jsq", "affinity", "vs rr", "vs jsq"},
	}
	t.AddRow("p50 latency", metrics.F(rr.Latency.P50, 0), metrics.F(jsq.Latency.P50, 0), metrics.F(aff.Latency.P50, 0),
		metrics.Gain(aff.Latency.P50, rr.Latency.P50), metrics.Gain(aff.Latency.P50, jsq.Latency.P50))
	t.AddRow("p99 latency", metrics.F(rr.Latency.P99, 0), metrics.F(jsq.Latency.P99, 0), metrics.F(aff.Latency.P99, 0),
		metrics.Gain(aff.Latency.P99, rr.Latency.P99), metrics.Gain(aff.Latency.P99, jsq.Latency.P99))
	t.AddRow("shed", fmt.Sprint(rr.Shed), fmt.Sprint(jsq.Shed), fmt.Sprint(aff.Shed), "", "")
	t.AddRow("deadline-missed", fmt.Sprint(rr.Missed), fmt.Sprint(jsq.Missed), fmt.Sprint(aff.Missed), "", "")
	t.AddRow("reschedules", fmt.Sprint(rr.Reschedules+rr.HealthReschedules),
		fmt.Sprint(jsq.Reschedules+jsq.HealthReschedules), fmt.Sprint(aff.Reschedules+aff.HealthReschedules), "", "")
	t.AddRow("shared-plan hits", fmt.Sprint(rr.SharedPlanHits), fmt.Sprint(jsq.SharedPlanHits), fmt.Sprint(aff.SharedPlanHits), "", "")
	if rr.Reroutes+jsq.Reroutes+aff.Reroutes > 0 {
		t.AddRow("reroutes", fmt.Sprint(rr.Reroutes), fmt.Sprint(jsq.Reroutes), fmt.Sprint(aff.Reroutes), "", "")
	}
	if rr.ScaleUps+jsq.ScaleUps+aff.ScaleUps > 0 {
		t.AddRow("scale-ups", fmt.Sprint(rr.ScaleUps), fmt.Sprint(jsq.ScaleUps), fmt.Sprint(aff.ScaleUps), "", "")
	}
	t.AddRow("mean affinity dist", "-", "-", metrics.F(aff.MeanAffinityDist, 4), "", "")
	return t
}

// validateFleetFlags rejects flag combinations fleet mode does not support.
func validateFleetFlags(o fleetOpts, replay, tenants string) error {
	if tenants != "" {
		return fmt.Errorf("-fleet and -tenants are mutually exclusive")
	}
	if replay != "" {
		return fmt.Errorf("-fleet serves the synthetic class mix; -replay is single-server only")
	}
	if o.n > 0 && o.replicas != "" {
		return fmt.Errorf("pass either -fleet N or -fleet-replicas, not both")
	}
	return nil
}
