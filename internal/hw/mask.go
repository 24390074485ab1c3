package hw

import (
	"math/bits"
	"strings"
)

// TileMask marks failed tiles of the chip. It is string-backed so that a
// Config carrying a mask stays comparable (the cost-model cache keys on the
// whole Config): byte i holds tiles 8i..8i+7, least-significant bit first.
// Always build masks through NewTileMask or Or so trailing zero bytes are
// trimmed and equal masks compare equal.
type TileMask string

// NewTileMask returns the mask with exactly the given tiles failed.
// Negative tile indices are ignored.
func NewTileMask(tiles ...int) TileMask {
	max := -1
	for _, t := range tiles {
		if t > max {
			max = t
		}
	}
	if max < 0 {
		return ""
	}
	b := make([]byte, max/8+1)
	for _, t := range tiles {
		if t >= 0 {
			b[t/8] |= 1 << (t % 8)
		}
	}
	return trimMask(b)
}

// trimMask drops trailing zero bytes so equal masks are equal strings.
func trimMask(b []byte) TileMask {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return TileMask(b[:n])
}

// Failed reports whether tile is marked failed.
func (m TileMask) Failed(tile int) bool {
	if tile < 0 {
		return false
	}
	i := tile / 8
	if i >= len(m) {
		return false
	}
	return m[i]&(1<<(tile%8)) != 0
}

// Empty reports whether no tile is marked failed.
func (m TileMask) Empty() bool {
	for i := 0; i < len(m); i++ {
		if m[i] != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of failed tiles.
func (m TileMask) Count() int {
	n := 0
	for i := 0; i < len(m); i++ {
		b := m[i]
		for b != 0 {
			n++
			b &= b - 1
		}
	}
	return n
}

// Max returns the highest failed tile index, or -1 for an empty mask.
func (m TileMask) Max() int {
	for i := len(m) - 1; i >= 0; i-- {
		if m[i] == 0 {
			continue
		}
		for bit := 7; bit >= 0; bit-- {
			if m[i]&(1<<bit) != 0 {
				return i*8 + bit
			}
		}
	}
	return -1
}

// Tiles returns the failed tile indices in ascending order.
func (m TileMask) Tiles() []int {
	var out []int
	for i := 0; i < len(m); i++ {
		for bit := 0; bit < 8; bit++ {
			if m[i]&(1<<bit) != 0 {
				out = append(out, i*8+bit)
			}
		}
	}
	return out
}

// RangeTileMask returns the mask with the contiguous tiles
// [start, start+count) failed. A non-positive count yields the empty mask.
// Spatial partitioning (internal/mtserve) carves the chip into such runs and
// masks each tenant's machine with the complement of its own run.
func RangeTileMask(start, count int) TileMask {
	if start < 0 {
		count += start
		start = 0
	}
	if count <= 0 {
		return ""
	}
	b := make([]byte, (start+count-1)/8+1)
	for t := start; t < start+count; t++ {
		b[t/8] |= 1 << (t % 8)
	}
	return trimMask(b)
}

// Complement returns the mask marking exactly the tiles of [0, total) that m
// does not mark. Bits of m at or beyond total are ignored.
func (m TileMask) Complement(total int) TileMask {
	if total <= 0 {
		return ""
	}
	b := make([]byte, (total-1)/8+1)
	for t := 0; t < total; t++ {
		if !m.Failed(t) {
			b[t/8] |= 1 << (t % 8)
		}
	}
	return trimMask(b)
}

// Or returns the union of both masks.
func (m TileMask) Or(o TileMask) TileMask {
	if len(o) > len(m) {
		m, o = o, m
	}
	if o.Empty() {
		return trimMask([]byte(m))
	}
	b := []byte(m)
	out := make([]byte, len(b))
	copy(out, b)
	for i := 0; i < len(o); i++ {
		out[i] |= o[i]
	}
	return trimMask(out)
}

// String renders the failed tiles for diagnostics, e.g. "{3,17,18}".
func (m TileMask) String() string {
	if m.Empty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range m.Tiles() {
		if i > 0 {
			b.WriteByte(',')
		}
		writeInt(&b, t)
	}
	b.WriteByte('}')
	return b.String()
}

func writeInt(b *strings.Builder, v int) {
	if v >= 10 {
		writeInt(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}

// LiveTiles returns the number of tiles still able to compute: the grid
// minus the failed tiles that fall inside it. It counts the mask's bits in
// place and allocates nothing.
func (c Config) LiveTiles() int {
	total := c.Tiles()
	n := total
	for i := 0; i < len(c.FailedTiles) && i*8 < total; i++ {
		b := c.FailedTiles[i]
		if rest := total - i*8; rest < 8 {
			b &= 1<<rest - 1 // bits at or past the grid's last tile
		}
		n -= bits.OnesCount8(b)
	}
	return n
}

// TileFailed reports whether the physical tile is masked out.
func (c Config) TileFailed(tile int) bool { return c.FailedTiles.Failed(tile) }

// PhysicalTile maps a live tile index (the compacted enumeration schedules
// allocate regions in) to its physical tile in the chip's row-major
// enumeration, skipping failed tiles. With an empty mask it is the identity.
// Out-of-range live indices clamp to the last physical tile so callers that
// only need a representative position never index off the chip.
func (c Config) PhysicalTile(live int) int {
	if c.FailedTiles.Empty() {
		return live
	}
	if live < 0 {
		live = 0
	}
	seen := 0
	for phys := 0; phys < c.Tiles(); phys++ {
		if c.FailedTiles.Failed(phys) {
			continue
		}
		if seen == live {
			return phys
		}
		seen++
	}
	return c.Tiles() - 1
}

// TileMap is PhysicalTile as a table: the live→physical translation of one
// config, built in a single pass over its fault mask so that callers
// translating many tiles pay O(tiles) once instead of O(tiles) per lookup.
type TileMap struct {
	phys  []int // phys[live]; nil when the mask is empty (identity)
	tiles int
}

// TileMap builds the config's live→physical tile table.
func (c Config) TileMap() TileMap {
	if c.FailedTiles.Empty() {
		return TileMap{tiles: c.Tiles()}
	}
	phys := make([]int, 0, c.Tiles())
	for t := 0; t < c.Tiles(); t++ {
		if !c.FailedTiles.Failed(t) {
			phys = append(phys, t)
		}
	}
	return TileMap{phys: phys, tiles: c.Tiles()}
}

// Physical returns PhysicalTile(live) for the table's config, with the same
// identity on an empty mask and the same clamping of out-of-range indices.
func (m TileMap) Physical(live int) int {
	if m.phys == nil {
		return live
	}
	if live < 0 {
		live = 0
	}
	if live < len(m.phys) {
		return m.phys[live]
	}
	return m.tiles - 1
}

// nocFactor and hbmFactor interpret the derate fields: zero means unset
// (healthy), anything else is the bandwidth multiplier.
func (c Config) nocFactor() float64 {
	if c.NoCDerate <= 0 {
		return 1
	}
	return c.NoCDerate
}

func (c Config) hbmFactor() float64 {
	if c.HBMDerate <= 0 {
		return 1
	}
	return c.HBMDerate
}
