package mtserve

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

// TestNewRejectsOutOfDomainFields: every numeric field of Config and of a
// Tenant set negative or non-finite fails New with an error naming the
// field, instead of serving on a default or with a trigger silently off.
// A tenant's Priority and Seed may be negative.
func TestNewRejectsOutOfDomainFields(t *testing.T) {
	check := func(field string, v float64, cfg Config) {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s = %v: New error %v, want one naming the field", field, v, err)
		}
	}
	cfg := headlineConfig(ModeRepartition)
	forEachBadField(cfg, check)
	forEachBadField(cfg.Tenants[1], func(field string, v float64, bad Tenant) {
		c := cfg
		c.Tenants = append([]Tenant(nil), cfg.Tenants...)
		c.Tenants[1] = bad
		check("Tenants[1]."+field, v, c)
	}, "Priority", "Seed")
}

// TestNewRejectsUnknownMode: a Mode past the last discipline fails New
// instead of serving as a static split.
func TestNewRejectsUnknownMode(t *testing.T) {
	for _, m := range []Mode{ModeRepartition + 1, 7} {
		cfg := headlineConfig(ModeRepartition)
		cfg.Mode = m
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Mode") {
			t.Errorf("Mode %d: New error %v, want one naming the field", m, err)
		}
	}
}
