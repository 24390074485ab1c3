// Package hw defines the hardware configuration of the Adyna accelerator and
// its baselines, mirroring Table III of the paper, together with the derived
// quantities (peak throughput, aggregate bandwidth) the cost model and the
// simulator consume.
package hw

import (
	"fmt"
	"math"
)

// Config describes one multi-tile accelerator instance. The zero value is not
// useful; start from Default and override fields as needed.
type Config struct {
	// TilesX and TilesY give the 2D tile grid (Table III: 12 x 12).
	TilesX, TilesY int
	// PERows and PECols give the per-tile PE array (Table III: 32 x 32).
	PERows, PECols int
	// ClockGHz is the accelerator clock (Table III: 1 GHz). Simulated time is
	// counted in cycles, so this only matters when converting to seconds.
	ClockGHz float64
	// ScratchpadBytes is the per-tile SRAM scratchpad (Table III: 512 kB).
	ScratchpadBytes int
	// RegFileBytes is the per-PE register file (Table III: 64 B).
	RegFileBytes int
	// HBMStacks and HBMTotalGBps describe off-chip memory
	// (Table III: 6 stacks, 1842 GB/s aggregate).
	HBMStacks    int
	HBMTotalGBps float64
	// NoCPerTileGBps is the injection/ejection bandwidth of each tile's NoC
	// interface (Table III: 192 GB/s per tile).
	NoCPerTileGBps float64
	// RouterHopCycles is the per-hop latency of the 2D-torus routers.
	RouterHopCycles int
	// BytesPerWord is the datatype width (FP16: 2 bytes).
	BytesPerWord int

	// KernelBudgetBytes is the scratchpad share reserved for kernel metadata
	// (paper: 5% of 512 kB = 25.6 kB).
	KernelBudgetBytes int
	// KernelMetaBytes is the size of one encoded template kernel (paper: 128 B).
	KernelMetaBytes int
	// TileShareFactor is how much tile sharing multiplies the kernel count
	// (paper: 2 operators x 3 allocation ratios = 6).
	TileShareFactor int

	// Live capability state (degraded-mode serving, internal/faults). The
	// zero values describe a healthy chip, so configurations that never see a
	// fault behave exactly as before.
	//
	// FailedTiles masks tiles that currently produce no work. Schedules are
	// planned over the surviving tiles (LiveTiles / PhysicalTile).
	FailedTiles TileMask
	// NoCDerate and HBMDerate multiply the respective healthy bandwidths to
	// model degraded interconnect links and lost HBM stacks. Zero means
	// unset (healthy, factor 1); otherwise the value must lie in (0, 1].
	NoCDerate, HBMDerate float64
}

// Default returns the Table III configuration of the paper.
func Default() Config {
	return Config{
		TilesX:            12,
		TilesY:            12,
		PERows:            32,
		PECols:            32,
		ClockGHz:          1.0,
		ScratchpadBytes:   512 << 10,
		RegFileBytes:      64,
		HBMStacks:         6,
		HBMTotalGBps:      1842,
		NoCPerTileGBps:    192,
		RouterHopCycles:   2,
		BytesPerWord:      2,
		KernelBudgetBytes: 25600, // 5% of 512 kB
		KernelMetaBytes:   128,
		TileShareFactor:   6,
	}
}

// Validate reports a descriptive error if the configuration is unusable.
func (c Config) Validate() error {
	switch {
	case c.TilesX <= 0 || c.TilesY <= 0:
		return fmt.Errorf("hw: tile grid %dx%d must be positive", c.TilesX, c.TilesY)
	case c.PERows <= 0 || c.PECols <= 0:
		return fmt.Errorf("hw: PE array %dx%d must be positive", c.PERows, c.PECols)
	case !positive(c.ClockGHz):
		return fmt.Errorf("hw: clock %.2f GHz must be positive", c.ClockGHz)
	case c.ScratchpadBytes <= 0:
		return fmt.Errorf("hw: scratchpad %d bytes must be positive", c.ScratchpadBytes)
	case c.HBMStacks <= 0 || !positive(c.HBMTotalGBps):
		return fmt.Errorf("hw: HBM config %d stacks %.0f GB/s must be positive", c.HBMStacks, c.HBMTotalGBps)
	case !positive(c.NoCPerTileGBps):
		return fmt.Errorf("hw: NoC bandwidth %.0f GB/s must be positive", c.NoCPerTileGBps)
	case c.BytesPerWord <= 0:
		return fmt.Errorf("hw: word size %d must be positive", c.BytesPerWord)
	case c.KernelBudgetBytes < c.KernelMetaBytes:
		return fmt.Errorf("hw: kernel budget %d B cannot hold a single %d B kernel", c.KernelBudgetBytes, c.KernelMetaBytes)
	case !(c.NoCDerate >= 0 && c.NoCDerate <= 1):
		return fmt.Errorf("hw: NoC derate %v outside (0,1]", c.NoCDerate)
	case !(c.HBMDerate >= 0 && c.HBMDerate <= 1):
		return fmt.Errorf("hw: HBM derate %v outside (0,1]", c.HBMDerate)
	}
	if max := c.FailedTiles.Max(); max >= c.Tiles() {
		return fmt.Errorf("hw: fault mask marks tile %d, chip has %d tiles", max, c.Tiles())
	}
	if c.LiveTiles() == 0 {
		return fmt.Errorf("hw: fault mask leaves no surviving tiles on the %d-tile chip", c.Tiles())
	}
	return nil
}

// positive reports whether v is finite and > 0 (false for NaN).
func positive(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// Tiles returns the total tile count.
func (c Config) Tiles() int { return c.TilesX * c.TilesY }

// PEsPerTile returns the number of MAC units in one tile.
func (c Config) PEsPerTile() int { return c.PERows * c.PECols }

// TotalPEs returns the chip-wide MAC count.
func (c Config) TotalPEs() int { return c.Tiles() * c.PEsPerTile() }

// PeakTFLOPs returns the peak throughput in TFLOPs (2 FLOPs per MAC).
// For the default configuration this is about 295 TFLOPs, matching the paper.
func (c Config) PeakTFLOPs() float64 {
	return float64(c.TotalPEs()) * 2 * c.ClockGHz / 1e3
}

// HBMBytesPerCycle returns the aggregate off-chip bandwidth in bytes per
// accelerator cycle, after any live HBM derate.
func (c Config) HBMBytesPerCycle() float64 {
	return c.HBMTotalGBps * c.hbmFactor() / c.ClockGHz
}

// HBMStackBytesPerCycle returns the per-stack bandwidth in bytes per cycle.
func (c Config) HBMStackBytesPerCycle() float64 {
	return c.HBMBytesPerCycle() / float64(c.HBMStacks)
}

// NoCBytesPerCycle returns a tile's NoC interface bandwidth in bytes/cycle,
// after any live link derate.
func (c Config) NoCBytesPerCycle() float64 {
	return c.NoCPerTileGBps * c.nocFactor() / c.ClockGHz
}

// TotalScratchpadBytes returns the chip-wide scratchpad capacity
// (72 MB in the default configuration).
func (c Config) TotalScratchpadBytes() int {
	return c.Tiles() * c.ScratchpadBytes
}

// MaxKernelsPerTile returns how many encoded kernels fit in the per-tile
// kernel budget (paper: 25.6 kB / 128 B = 200).
func (c Config) MaxKernelsPerTile() int {
	return c.KernelBudgetBytes / c.KernelMetaBytes
}

// MaxKernelsPerOperator returns the per-operator kernel sampling budget after
// accounting for tile sharing (paper: 200 / 6 ~= 32).
func (c Config) MaxKernelsPerOperator() int {
	n := c.MaxKernelsPerTile() / c.TileShareFactor
	if n < 1 {
		n = 1
	}
	return n
}

// CyclesToSeconds converts a cycle count to wall-clock seconds at the
// configured frequency.
func (c Config) CyclesToSeconds(cycles int64) float64 {
	return float64(cycles) / (c.ClockGHz * 1e9)
}

// SecondsToCycles converts seconds to cycles, rounding up.
func (c Config) SecondsToCycles(s float64) int64 {
	cyc := s * c.ClockGHz * 1e9
	n := int64(cyc)
	if float64(n) < cyc {
		n++
	}
	return n
}
