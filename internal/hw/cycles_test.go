package hw

import "testing"

// TestParseCycles covers both syntaxes the command-line specs accepted
// before they shared one parser — exact integers and exponents (fault
// specs), k/M/G suffixes (tenant specs) — and the rejections.
func TestParseCycles(t *testing.T) {
	for in, want := range map[string]int64{
		"0":                   0,
		"4000000":             4_000_000,
		" 42 ":                42,
		"-5":                  -5,
		"9007199254740993":    9007199254740993, // 2^53+1: exact only through ParseInt
		"9223372036854775807": 9223372036854775807,
		"2e6":                 2_000_000,
		"1.2e7":               12_000_000,
		"2.5":                 2,
		"30k":                 30_000,
		"30K":                 30_000,
		"2.5M":                2_500_000,
		"20M":                 20_000_000,
		"1G":                  1_000_000_000,
		"3e4k":                30_000_000,
	} {
		got, err := ParseCycles(in)
		if err != nil || got != want {
			t.Errorf("ParseCycles(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{
		"", "k", "M", "fast", "5X", "5m", "1e400", "NaN", "inf", "-Inf", "1e19", "1,000", "0x10",
	} {
		if got, err := ParseCycles(in); err == nil {
			t.Errorf("ParseCycles(%q) = %d, want an error", in, got)
		}
	}
}
