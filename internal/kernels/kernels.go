// Package kernels implements Adyna's template kernels (Section VI-B).
//
// A kernel is a pre-compiled dataflow scheme for one operator at one dyn_dim
// value and one tile allocation. Rather than storing a full program, the
// hardware keeps a generic nested-loop template in its control logic and
// stores only per-kernel metadata — loop dimensions, blocking factors,
// iteration strides and loop orders — in exactly 128 bytes (Figure 8). The
// kernel dispatcher selects, for each arriving dyn value, the stored kernel
// with the smallest compiled value that is no less than the actual value.
package kernels

import (
	"fmt"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/hw"
)

// The canonical 7-dimensional iteration space of the template (Figure 8):
// the dyn (batch) dimension plus [C, M, H, W, R, S].
const (
	DimN = iota
	DimC
	DimM
	DimH
	DimW
	DimR
	DimS
	NumDims
)

// NumLevels is the number of loop levels, matching the memory hierarchy:
// chip (across tiles), scratchpad, PE array, register file, and the
// sequential remainder.
const NumLevels = 5

// Names of the loop levels, outermost first.
const (
	LevelChip = iota
	LevelSRAM
	LevelArray
	LevelReg
	LevelSeq
)

// Factor is one dimension's treatment at one loop level: the blocking factor
// (16 bits), the iteration stride (4 bits) and the loop order at this level
// (4 bits), exactly as in Figure 8.
type Factor struct {
	Blk    uint16
	Stride uint8 // 4 bits used
	Order  uint8 // 4 bits used
}

// LoopNest is the full decoded template metadata.
type LoopNest struct {
	Dims   [NumDims]uint16
	Levels [NumLevels][NumDims]Factor
}

// Kernel is one compiled dataflow scheme held by a tile group. It names no
// operator: operators of one work model and iteration space compile to equal
// kernels, so one Kernel value may serve several of them.
type Kernel struct {
	CompiledUnits int
	Tiles         int
	Blocking      costmodel.Blocking
	Nest          LoopNest
}

// MetaBytes is the encoded size of one kernel (Figure 8: "about 128 bytes").
const MetaBytes = 128

// Generate compiles a kernel for op at the given dyn value and tile
// allocation: it searches blocking schemes with the cost model and lowers the
// winner to template metadata.
func Generate(cfg hw.Config, op *graph.Op, units, tiles int) (*Kernel, error) {
	blk, _, err := costmodel.Optimize(cfg, op, units, tiles)
	if err != nil {
		return nil, err
	}
	return Lower(cfg, op, units, tiles, blk), nil
}

// Lower builds the kernel of an already searched blocking scheme: the second
// half of Generate, for callers that run the blocking search themselves.
func Lower(cfg hw.Config, op *graph.Op, units, tiles int, blk costmodel.Blocking) *Kernel {
	return &Kernel{
		CompiledUnits: units,
		Tiles:         tiles,
		Blocking:      blk,
		Nest:          lower(cfg, op, units, blk),
	}
}

// lower expands the compact blocking decision into the full 5-level loop
// nest the hardware instruction issuer iterates.
func lower(cfg hw.Config, op *graph.Op, units int, blk costmodel.Blocking) LoopNest {
	var n LoopNest
	dims := [NumDims]int{units, op.Space[0], op.Space[1], op.Space[2], op.Space[3], op.Space[4], op.Space[5]}
	for d, v := range dims {
		if v < 1 {
			v = 1
		}
		if v > 0xFFFF {
			v = 0xFFFF
		}
		n.Dims[d] = uint16(v)
	}
	set := func(level, dim, blkf, order int) {
		if blkf < 1 {
			blkf = 1
		}
		if blkf > 0xFFFF {
			blkf = 0xFFFF
		}
		n.Levels[level][dim] = Factor{Blk: uint16(blkf), Stride: 1, Order: uint8(order & 0xF)}
	}
	// Chip level: partition N across SplitN tile groups and M across SplitM.
	set(LevelChip, DimN, blk.SplitN, 0)
	set(LevelChip, DimM, blk.SplitM, 1)
	// Scratchpad level: dyn blocks of NBlk units stream through the buffer.
	set(LevelSRAM, DimN, blk.NBlk, 0)
	set(LevelSRAM, DimH, int(n.Dims[DimH]), 1)
	set(LevelSRAM, DimW, int(n.Dims[DimW]), 2)
	// Array level: M on rows, C on columns.
	mt := (int(n.Dims[DimM]) + blk.SplitM - 1) / blk.SplitM
	set(LevelArray, DimM, minInt(mt, cfg.PERows), 0)
	set(LevelArray, DimC, minInt(int(n.Dims[DimC]), cfg.PECols), 1)
	// Register level: the filter window lives in the register file.
	set(LevelReg, DimR, int(n.Dims[DimR]), 0)
	set(LevelReg, DimS, int(n.Dims[DimS]), 1)
	// Sequential remainder: whatever is left of C and M iterates in time.
	set(LevelSeq, DimC, ceilInt(int(n.Dims[DimC]), cfg.PECols), 0)
	set(LevelSeq, DimM, ceilInt(mt, cfg.PERows), 1)
	// Fill untouched factors with the identity so the nest is total.
	for l := 0; l < NumLevels; l++ {
		for d := 0; d < NumDims; d++ {
			if n.Levels[l][d].Blk == 0 {
				n.Levels[l][d] = Factor{Blk: 1, Stride: 1, Order: uint8(d & 0xF)}
			}
		}
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func ceilInt(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// Encode packs the kernel's metadata into the 128-byte on-chip format:
//
//	byte 0      magic 0xAD
//	byte 1      version
//	byte 2      flags (bit0: weights resident)
//	byte 3      log of nothing, reserved
//	bytes 4..17 7 dimension totals, uint16 little-endian
//	bytes 18..122  5 levels x 7 dims x (uint16 blk, stride<<4|order)
//	bytes 123..126 compiled units (uint16), tiles (uint16)
//	byte 127    XOR checksum of bytes 0..126
func (k *Kernel) Encode() [MetaBytes]byte {
	var b [MetaBytes]byte
	b[0] = 0xAD
	b[1] = 0x01
	if k.Blocking.WeightResident {
		b[2] |= 1
	}
	put16 := func(off int, v uint16) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
	}
	for d := 0; d < NumDims; d++ {
		put16(4+2*d, k.Nest.Dims[d])
	}
	off := 18
	for l := 0; l < NumLevels; l++ {
		for d := 0; d < NumDims; d++ {
			f := k.Nest.Levels[l][d]
			put16(off, f.Blk)
			b[off+2] = (f.Stride&0xF)<<4 | (f.Order & 0xF)
			off += 3
		}
	}
	put16(123, uint16(clampU16(k.CompiledUnits)))
	put16(125, uint16(clampU16(k.Tiles)))
	var sum byte
	for i := 0; i < MetaBytes-1; i++ {
		sum ^= b[i]
	}
	b[MetaBytes-1] = sum
	return b
}

func clampU16(v int) int {
	if v < 0 {
		return 0
	}
	if v > 0xFFFF {
		return 0xFFFF
	}
	return v
}

// Decode unpacks kernel metadata previously produced by Encode. The blocking
// splits are recovered from the nest itself.
func Decode(b [MetaBytes]byte) (*Kernel, error) {
	if b[0] != 0xAD {
		return nil, fmt.Errorf("kernels: bad magic %#x", b[0])
	}
	if b[1] != 0x01 {
		return nil, fmt.Errorf("kernels: unsupported version %d", b[1])
	}
	var sum byte
	for i := 0; i < MetaBytes-1; i++ {
		sum ^= b[i]
	}
	if sum != b[MetaBytes-1] {
		return nil, fmt.Errorf("kernels: checksum mismatch")
	}
	get16 := func(off int) uint16 {
		return uint16(b[off]) | uint16(b[off+1])<<8
	}
	k := &Kernel{}
	for d := 0; d < NumDims; d++ {
		k.Nest.Dims[d] = get16(4 + 2*d)
	}
	off := 18
	for l := 0; l < NumLevels; l++ {
		for d := 0; d < NumDims; d++ {
			k.Nest.Levels[l][d] = Factor{
				Blk:    get16(off),
				Stride: b[off+2] >> 4,
				Order:  b[off+2] & 0xF,
			}
			off += 3
		}
	}
	k.CompiledUnits = int(get16(123))
	k.Tiles = int(get16(125))
	k.Blocking = costmodel.Blocking{
		SplitN:         int(k.Nest.Levels[LevelChip][DimN].Blk),
		SplitM:         int(k.Nest.Levels[LevelChip][DimM].Blk),
		NBlk:           int(k.Nest.Levels[LevelSRAM][DimN].Blk),
		WeightResident: b[2]&1 != 0,
	}
	return k, nil
}

// Set is the collection of kernels a tile group holds for one operator,
// ordered by compiled dyn value. It is what the kernel dispatcher searches.
type Set struct {
	kernels []*Kernel
}

// NewSet builds a set from kernels, sorting by compiled value and rejecting
// duplicates.
func NewSet(ks []*Kernel) (*Set, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("kernels: empty set")
	}
	sorted := append([]*Kernel(nil), ks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CompiledUnits < sorted[j].CompiledUnits })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].CompiledUnits == sorted[i-1].CompiledUnits {
			return nil, fmt.Errorf("kernels: duplicate compiled value %d", sorted[i].CompiledUnits)
		}
	}
	return &Set{kernels: sorted}, nil
}

// Select returns the best-matching kernel for the actual dyn value: the one
// with the smallest compiled value that is no less than actual (Section
// VI-B). A zero actual value selects the smallest kernel (it will be skipped
// entirely by runtime fitting).
func (s *Set) Select(actual int) (*Kernel, error) {
	if actual < 0 {
		return nil, fmt.Errorf("kernels: negative dyn value %d", actual)
	}
	i := sort.Search(len(s.kernels), func(i int) bool {
		return s.kernels[i].CompiledUnits >= actual
	})
	if i == len(s.kernels) {
		return nil, fmt.Errorf("kernels: dyn value %d exceeds largest compiled kernel %d",
			actual, s.kernels[len(s.kernels)-1].CompiledUnits)
	}
	return s.kernels[i], nil
}

// Values returns the compiled dyn values, ascending.
func (s *Set) Values() []int {
	out := make([]int, len(s.kernels))
	for i, k := range s.kernels {
		out[i] = k.CompiledUnits
	}
	return out
}

// Len returns the number of kernels in the set.
func (s *Set) Len() int { return len(s.kernels) }

// StorageBytes returns the on-chip footprint of the set.
func (s *Set) StorageBytes() int { return len(s.kernels) * MetaBytes }
