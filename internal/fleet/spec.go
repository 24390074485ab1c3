package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hw"
)

// Replica spec grammar (the -fleet-replicas flag): comma-separated replicas,
// each a name followed by colon-separated options —
//
//	big:tiles=12x12,small:tiles=8x8:noc=0.8,edge:tiles=4x4:count=2
//
// Options:
//
//	tiles=WxH   tile grid override (both dimensions > 0)
//	noc=F       NoC bandwidth derate in (0,1]
//	hbm=F       HBM bandwidth derate in (0,1]
//	seed=N      bring-up seed override
//	count=N     expand into N replicas name-1..name-N sharing the options
//
// Replica names must be unique after count expansion; hardware overrides
// start from the base config (the DSE sweep's points are expressed this
// way — heterogeneous fleets mix tile-grid sizes).
type ReplicaSpec struct {
	// Name identifies the replica in reports, traces and fault domains.
	Name string
	// HW is the replica's hardware config.
	HW hw.Config
	// Seed overrides the bring-up seed when non-zero.
	Seed int64
}

// ParseSpec parses the -fleet-replicas grammar against a base hardware
// config. It rejects empty or duplicate names, zero tile grids, derates
// outside (0,1], malformed numbers and any replica hardware config that
// does not validate.
func ParseSpec(spec string, base hw.Config) ([]ReplicaSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("fleet: empty replica spec")
	}
	var out []ReplicaSpec
	for _, part := range strings.Split(spec, ",") {
		rs, count, err := parseReplica(strings.TrimSpace(part), base)
		if err != nil {
			return nil, err
		}
		if count <= 1 {
			out = append(out, rs)
			continue
		}
		for i := 1; i <= count; i++ {
			r := rs
			r.Name = fmt.Sprintf("%s-%d", rs.Name, i)
			out = append(out, r)
		}
	}
	seen := map[string]bool{}
	for _, r := range out {
		if seen[r.Name] {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return out, nil
}

func parseReplica(s string, base hw.Config) (ReplicaSpec, int, error) {
	fields := strings.Split(s, ":")
	name := strings.TrimSpace(fields[0])
	if name == "" {
		return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica with empty name in %q", s)
	}
	rs := ReplicaSpec{Name: name, HW: base}
	count := 1
	for _, opt := range fields[1:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: option %q is not key=value", name, opt)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "tiles":
			w, h, ok := strings.Cut(v, "x")
			if !ok {
				return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: tiles %q is not WxH", name, v)
			}
			tx, err1 := strconv.Atoi(w)
			ty, err2 := strconv.Atoi(h)
			if err1 != nil || err2 != nil || tx <= 0 || ty <= 0 {
				return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: tile grid %q must be positive WxH", name, v)
			}
			rs.HW.TilesX, rs.HW.TilesY = tx, ty
		case "noc", "hbm":
			fv, err := strconv.ParseFloat(v, 64)
			if err != nil || !(fv > 0 && fv <= 1) { // NaN fails both
				return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: %s derate %q outside (0,1]", name, k, v)
			}
			if fv < 1 {
				if k == "noc" {
					rs.HW.NoCDerate = fv
				} else {
					rs.HW.HBMDerate = fv
				}
			}
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: seed %q must be a positive integer", name, v)
			}
			rs.Seed = n
		case "count":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 || n > 64 {
				return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: count %q must be in 1..64", name, v)
			}
			count = n
		default:
			return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: unknown option %q", name, k)
		}
	}
	if err := rs.HW.Validate(); err != nil {
		return ReplicaSpec{}, 0, fmt.Errorf("fleet: replica %s: %w", name, err)
	}
	return rs, count, nil
}

// HomogeneousSpecs returns n identically-configured replicas named r1..rn —
// what cmd/serve's plain -fleet N expands to.
func HomogeneousSpecs(n int, base hw.Config) []ReplicaSpec {
	out := make([]ReplicaSpec, n)
	for i := range out {
		out[i] = ReplicaSpec{Name: fmt.Sprintf("r%d", i+1), HW: base}
	}
	return out
}
