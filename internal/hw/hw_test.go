package hw

import (
	"math"
	"testing"
)

func TestDefaultMatchesTableIII(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if got := c.Tiles(); got != 144 {
		t.Errorf("tiles = %d, want 144", got)
	}
	if got := c.PEsPerTile(); got != 1024 {
		t.Errorf("PEs/tile = %d, want 1024", got)
	}
	// Paper: "These configurations offer 295 TFLOPs peak throughput".
	if got := c.PeakTFLOPs(); math.Abs(got-294.912) > 1e-9 {
		t.Errorf("peak = %v TFLOPs, want ~295", got)
	}
	if got := c.TotalScratchpadBytes(); got != 72<<20 {
		t.Errorf("total scratchpad = %d, want 72 MB", got)
	}
	// Paper: "we can at most store 200 kernels in each tile ... the maximum
	// kernel count is about 32".
	if got := c.MaxKernelsPerTile(); got != 200 {
		t.Errorf("kernels/tile = %d, want 200", got)
	}
	if got := c.MaxKernelsPerOperator(); got != 33 {
		t.Errorf("kernels/op = %d, want 33 (200/6)", got)
	}
}

func TestBandwidthDerivations(t *testing.T) {
	c := Default()
	if got := c.HBMBytesPerCycle(); math.Abs(got-1842) > 1e-9 {
		t.Errorf("HBM bytes/cycle = %v, want 1842", got)
	}
	if got := c.HBMStackBytesPerCycle(); math.Abs(got-307) > 1e-9 {
		t.Errorf("stack bytes/cycle = %v, want 307", got)
	}
	if got := c.NoCBytesPerCycle(); math.Abs(got-192) > 1e-9 {
		t.Errorf("NoC bytes/cycle = %v, want 192", got)
	}
	// At 2 GHz the per-cycle bandwidth halves.
	c.ClockGHz = 2
	if got := c.HBMBytesPerCycle(); math.Abs(got-921) > 1e-9 {
		t.Errorf("HBM bytes/cycle @2GHz = %v, want 921", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero tiles", func(c *Config) { c.TilesX = 0 }},
		{"negative PEs", func(c *Config) { c.PECols = -1 }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
		{"zero scratchpad", func(c *Config) { c.ScratchpadBytes = 0 }},
		{"zero HBM", func(c *Config) { c.HBMTotalGBps = 0 }},
		{"zero NoC", func(c *Config) { c.NoCPerTileGBps = 0 }},
		{"zero word", func(c *Config) { c.BytesPerWord = 0 }},
		{"tiny kernel budget", func(c *Config) { c.KernelBudgetBytes = 10 }},
		// NaN fails every comparison, so each float check must be written
		// to pass only in-domain values.
		{"NaN clock", func(c *Config) { c.ClockGHz = math.NaN() }},
		{"infinite clock", func(c *Config) { c.ClockGHz = math.Inf(1) }},
		{"NaN HBM", func(c *Config) { c.HBMTotalGBps = math.NaN() }},
		{"NaN NoC", func(c *Config) { c.NoCPerTileGBps = math.NaN() }},
		{"NaN NoC derate", func(c *Config) { c.NoCDerate = math.NaN() }},
		{"NaN HBM derate", func(c *Config) { c.HBMDerate = math.NaN() }},
		{"derate above 1", func(c *Config) { c.HBMDerate = 1.5 }},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", tc.name)
		}
	}
}

func TestCycleSecondConversion(t *testing.T) {
	c := Default()
	if got := c.CyclesToSeconds(1e9); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("1e9 cycles = %v s, want 1", got)
	}
	if got := c.SecondsToCycles(0.39e-3); got != 390000 {
		t.Errorf("0.39 ms = %d cycles, want 390000", got)
	}
	// Round-up behaviour.
	if got := c.SecondsToCycles(1.5e-9); got != 2 {
		t.Errorf("1.5 ns = %d cycles, want 2", got)
	}
}

func TestMaxKernelsFloor(t *testing.T) {
	c := Default()
	c.KernelBudgetBytes = c.KernelMetaBytes // exactly one kernel
	if got := c.MaxKernelsPerOperator(); got != 1 {
		t.Errorf("kernels/op = %d, want floor of 1", got)
	}
}
