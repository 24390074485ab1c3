package fleet

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// forEachBadField calls try once per int or float64 field of cfg (bar the
// exempt ones) and per value outside "finite and >= 0" the field can hold —
// -1 for integers; -1, NaN and ±Inf for floats — with that field set in a
// copy of cfg.
func forEachBadField[T any](cfg T, try func(field string, v float64, bad T), exempt ...string) {
	typ := reflect.TypeOf(cfg)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if slices.Contains(exempt, name) {
			continue
		}
		var vals []float64
		switch typ.Field(i).Type.Kind() {
		case reflect.Int, reflect.Int64:
			vals = []float64{-1}
		case reflect.Float64:
			vals = []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)}
		}
		for _, v := range vals {
			bad := cfg
			f := reflect.ValueOf(&bad).Elem().Field(i)
			if f.CanFloat() {
				f.SetFloat(v)
			} else {
				f.SetInt(int64(v))
			}
			try(name, v, bad)
		}
	}
}

// TestNewRejectsOutOfDomainFields: every numeric field of Config and of
// MixConfig set negative or non-finite fails its constructor with an error
// naming the field, instead of running on a default. A mix Seed may be
// negative.
func TestNewRejectsOutOfDomainFields(t *testing.T) {
	base := fleetBase("skipnet")
	forEachBadField(Config{Base: base, Replicas: HomogeneousSpecs(2, base.RC.HW)}, func(field string, v float64, cfg Config) {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s = %v: New error %v, want one naming the field", field, v, err)
		}
	})
	forEachBadField(MixConfig{Model: "skipnet", Requests: 10}, func(field string, v float64, cfg MixConfig) {
		if _, err := NewMixSource(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s = %v: NewMixSource error %v, want one naming the field", field, v, err)
		}
	}, "Seed")
}

// TestNewRejectsUnknownPolicy: a Policy outside Policies() fails New instead
// of routing as join-shortest-queue.
func TestNewRejectsUnknownPolicy(t *testing.T) {
	base := fleetBase("skipnet")
	for _, p := range []Policy{PolicyAffinity + 1, 7} {
		cfg := Config{Base: base, Replicas: HomogeneousSpecs(2, base.RC.HW), Policy: p}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Policy") {
			t.Errorf("Policy %d: New error %v, want one naming the field", p, err)
		}
	}
}
