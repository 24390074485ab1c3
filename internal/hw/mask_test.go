package hw

import (
	"math/rand"
	"testing"
)

func TestTileMaskBasics(t *testing.T) {
	var zero TileMask
	if !zero.Empty() || zero.Count() != 0 || zero.Max() != -1 || zero.Tiles() != nil {
		t.Fatalf("zero mask not empty: %q", zero)
	}
	m := NewTileMask(3, 17, 3, 0)
	if m.Empty() || m.Count() != 3 {
		t.Fatalf("mask %q count %d, want 3 (duplicates collapse)", m, m.Count())
	}
	for _, tile := range []int{0, 3, 17} {
		if !m.Failed(tile) {
			t.Errorf("tile %d not failed in %v", tile, m)
		}
	}
	for _, tile := range []int{1, 16, 18, 1000, -1} {
		if m.Failed(tile) {
			t.Errorf("tile %d failed in %v", tile, m)
		}
	}
	if m.Max() != 17 {
		t.Errorf("max %d, want 17", m.Max())
	}
	if got := m.Tiles(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 17 {
		t.Errorf("tiles %v, want [0 3 17]", got)
	}
	if s := m.String(); s != "{0,3,17}" {
		t.Errorf("String %q", s)
	}
}

// TestTileMaskCanonical: masks are comparable config fields, so equal tile
// sets must compare equal however they were built.
func TestTileMaskCanonical(t *testing.T) {
	a := NewTileMask(1, 9)
	b := NewTileMask(9, 1)
	if a != b {
		t.Fatalf("order changed the mask: %q vs %q", a, b)
	}
	// Or with an empty mask must not grow trailing zero bytes.
	if c := a.Or(NewTileMask()); c != a {
		t.Fatalf("or with empty changed the mask: %q vs %q", c, a)
	}
	if c := NewTileMask(1).Or(NewTileMask(9)); c != a {
		t.Fatalf("or of parts %q != built whole %q", c, a)
	}
	if NewTileMask() != zeroMaskLiteral() {
		t.Fatal("empty built mask != zero value")
	}
}

func zeroMaskLiteral() TileMask { return "" }

// TestRangeTileMask: contiguous runs build canonically and clamp at zero.
func TestRangeTileMask(t *testing.T) {
	if m := RangeTileMask(4, 3); m != NewTileMask(4, 5, 6) {
		t.Fatalf("RangeTileMask(4,3) = %v", m)
	}
	if m := RangeTileMask(0, 0); m != "" {
		t.Fatalf("empty range not empty: %q", m)
	}
	if m := RangeTileMask(7, -2); m != "" {
		t.Fatalf("negative count not empty: %q", m)
	}
	// A negative start clips to tile 0 (the part below zero does not exist).
	if m := RangeTileMask(-2, 4); m != NewTileMask(0, 1) {
		t.Fatalf("clipped range = %v", m)
	}
	if m := RangeTileMask(0, 144); m.Count() != 144 || m.Max() != 143 {
		t.Fatalf("full-chip range: count %d max %d", m.Count(), m.Max())
	}
}

// TestComplement: a partition's failed mask is the complement of its owned
// run; complementing twice round-trips within the chip.
func TestComplement(t *testing.T) {
	own := RangeTileMask(2, 3) // tiles 2,3,4 of a 8-tile chip
	rest := own.Complement(8)
	if rest != NewTileMask(0, 1, 5, 6, 7) {
		t.Fatalf("complement = %v", rest)
	}
	if got := rest.Complement(8); got != own {
		t.Fatalf("double complement %v != %v", got, own)
	}
	if got := TileMask("").Complement(4); got != NewTileMask(0, 1, 2, 3) {
		t.Fatalf("complement of empty = %v", got)
	}
	if got := NewTileMask(0, 1).Complement(0); got != "" {
		t.Fatalf("complement over empty chip = %q", got)
	}
	// Bits beyond total are ignored, keeping the result canonical.
	if got := NewTileMask(9).Complement(4); got != NewTileMask(0, 1, 2, 3) {
		t.Fatalf("out-of-range bit leaked: %v", got)
	}
}

func TestConfigLiveTiles(t *testing.T) {
	cfg := Default()
	if cfg.LiveTiles() != cfg.Tiles() {
		t.Fatalf("healthy live %d != total %d", cfg.LiveTiles(), cfg.Tiles())
	}
	cfg.FailedTiles = NewTileMask(0, 1, 2, 143)
	if got := cfg.LiveTiles(); got != cfg.Tiles()-4 {
		t.Fatalf("live %d, want %d", got, cfg.Tiles()-4)
	}
	if !cfg.TileFailed(0) || cfg.TileFailed(3) {
		t.Fatal("TileFailed wrong")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("masked config invalid: %v", err)
	}
}

// TestLiveTilesCountsInPlace: LiveTiles agrees with its definition — the
// grid minus the mask's tiles that fall inside it — on random grids and masks
// (empty, sparse, dense, all-failed and masks with bits beyond the chip), and
// allocates nothing.
func TestLiveTilesCountsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		cfg := Default()
		cfg.TilesX, cfg.TilesY = 1+rng.Intn(13), 1+rng.Intn(13)
		var failed []int
		p := rng.Float64()
		for tile := 0; tile < cfg.Tiles()+17; tile++ {
			if rng.Float64() < p {
				failed = append(failed, tile)
			}
		}
		cfg.FailedTiles = NewTileMask(failed...)
		want := cfg.Tiles()
		for _, tile := range cfg.FailedTiles.Tiles() {
			if tile < cfg.Tiles() {
				want--
			}
		}
		if got := cfg.LiveTiles(); got != want {
			t.Fatalf("%dx%d mask %v: LiveTiles = %d, want %d", cfg.TilesX, cfg.TilesY, cfg.FailedTiles, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { cfg.LiveTiles() }); allocs != 0 {
			t.Fatalf("LiveTiles allocated %v times per call", allocs)
		}
	}
}

// TestPhysicalTile: the live enumeration skips failed tiles; identity on a
// healthy chip.
func TestPhysicalTile(t *testing.T) {
	cfg := Default()
	for _, live := range []int{0, 7, cfg.Tiles() - 1} {
		if got := cfg.PhysicalTile(live); got != live {
			t.Fatalf("healthy PhysicalTile(%d) = %d", live, got)
		}
	}
	cfg.FailedTiles = NewTileMask(0, 2, 3)
	want := map[int]int{0: 1, 1: 4, 2: 5}
	for live, phys := range want {
		if got := cfg.PhysicalTile(live); got != phys {
			t.Errorf("PhysicalTile(%d) = %d, want %d", live, got, phys)
		}
	}
	// Out-of-range live indices clamp to the last physical tile.
	if got := cfg.PhysicalTile(cfg.Tiles()); got != cfg.Tiles()-1 {
		t.Errorf("clamp gave %d", got)
	}
}

// TestTileMapMatchesPhysicalTile: the one-pass table agrees with
// PhysicalTile for random masks (empty, sparse, dense, all-failed and masks
// with bits beyond the chip) on every live index and on out-of-range ones.
func TestTileMapMatchesPhysicalTile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		cfg := Default()
		cfg.TilesX, cfg.TilesY = 1+rng.Intn(6), 1+rng.Intn(6)
		var failed []int
		p := rng.Float64()
		for tile := 0; tile < cfg.Tiles()+4; tile++ {
			if rng.Float64() < p {
				failed = append(failed, tile)
			}
		}
		cfg.FailedTiles = NewTileMask(failed...)
		tm := cfg.TileMap()
		for live := -3; live < cfg.Tiles()+5; live++ {
			if got, want := tm.Physical(live), cfg.PhysicalTile(live); got != want {
				t.Fatalf("%dx%d mask %v: TileMap.Physical(%d) = %d, PhysicalTile = %d",
					cfg.TilesX, cfg.TilesY, cfg.FailedTiles, live, got, want)
			}
		}
	}
}

func TestValidateCapabilityFields(t *testing.T) {
	cfg := Default()
	cfg.NoCDerate = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("NoC derate 1.5 accepted")
	}
	cfg = Default()
	cfg.HBMDerate = -0.5
	if err := cfg.Validate(); err == nil {
		t.Error("HBM derate -0.5 accepted")
	}
	cfg = Default()
	cfg.FailedTiles = NewTileMask(cfg.Tiles())
	if err := cfg.Validate(); err == nil {
		t.Error("mask past the chip accepted")
	}
	cfg = Default()
	cfg.FailedTiles = NewTileMask(tileSeq(cfg.Tiles())...)
	if err := cfg.Validate(); err == nil {
		t.Error("all-dead chip accepted")
	}
}

func tileSeq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestDeratedBandwidth: the plan-time cost model sees the derated bandwidth;
// the zero value means healthy.
func TestDeratedBandwidth(t *testing.T) {
	cfg := Default()
	baseHBM, baseNoC := cfg.HBMBytesPerCycle(), cfg.NoCBytesPerCycle()
	cfg.HBMDerate = 0.5
	cfg.NoCDerate = 0.25
	if got := cfg.HBMBytesPerCycle(); got != baseHBM*0.5 {
		t.Errorf("derated HBM %v, want %v", got, baseHBM*0.5)
	}
	if got := cfg.NoCBytesPerCycle(); got != baseNoC*0.25 {
		t.Errorf("derated NoC %v, want %v", got, baseNoC*0.25)
	}
}
