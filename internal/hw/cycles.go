package hw

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseCycles reads a cycle count from command-line syntax: a plain integer
// (kept exact, however large), a decimal or scientific-notation number
// ("2.5e6"), or either with a k, M or G suffix ("30k", "2.5M", "1G").
// Fractional cycles truncate toward zero.
func ParseCycles(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	num, mult := s, 1.0
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		num, mult = s[:len(s)-1], 1e3
	case strings.HasSuffix(s, "M"):
		num, mult = s[:len(s)-1], 1e6
	case strings.HasSuffix(s, "G"):
		num, mult = s[:len(s)-1], 1e9
	}
	f, err := strconv.ParseFloat(num, 64)
	f *= mult
	if err != nil || math.IsNaN(f) || math.Abs(f) >= math.MaxInt64 {
		return 0, fmt.Errorf("bad cycle count %q", s)
	}
	return int64(f), nil
}

// CheckNonNegative is the domain rule of every count, duration, threshold
// and rate a serving config or command-line spec takes: v must be finite and
// >= 0 (zero selects the field's default). The error names the value as
// name, a Go field path or a flag.
func CheckNonNegative[T int | int64 | float64](name string, v T) error {
	if f := float64(v); f >= 0 && f <= math.MaxFloat64 { // NaN fails both
		return nil
	}
	return fmt.Errorf("%s %v must be finite and >= 0", name, v)
}
