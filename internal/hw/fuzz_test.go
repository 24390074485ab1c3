package hw

import (
	"strconv"
	"testing"
)

// FuzzParseCycles feeds arbitrary strings to the cycle-count parser (it must
// never panic) and checks that plain integers round-trip exactly.
func FuzzParseCycles(f *testing.F) {
	for _, seed := range []string{"0", "30k", "2.5M", "1G", "3e4", "-7", "9223372036854775807", "NaN", "1e30", " 12 ", "k"} {
		f.Add(seed, int64(len(seed)))
	}
	f.Fuzz(func(t *testing.T, s string, n int64) {
		ParseCycles(s)
		plain := strconv.FormatInt(n, 10)
		if got, err := ParseCycles(plain); err != nil || got != n {
			t.Fatalf("ParseCycles(%q) = %d, %v; want %d", plain, got, err, n)
		}
	})
}
