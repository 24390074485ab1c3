package kernels

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hw"
)

func convOp(t testing.TB, maxUnits int) *graph.Op {
	b := graph.NewBuilder("t", 1)
	in := b.Input("in", 64*14*14*2, maxUnits)
	conv := b.Conv2D("conv", in, graph.ConvSpec{
		InC: 64, OutC: 128, H: 14, W: 14, R: 3, S: 3, Stride: 1, Pad: 1,
	})
	b.Output("out", conv)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g.Op(g.ComputeOps()[0])
}

func TestGenerateProducesValidNest(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	k, err := Generate(cfg, op, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if k.CompiledUnits != 128 || k.Tiles != 8 {
		t.Fatalf("kernel identity wrong: %+v", k)
	}
	if k.Nest.Dims[DimN] != 128 || k.Nest.Dims[DimC] != 64 || k.Nest.Dims[DimM] != 128 {
		t.Fatalf("nest dims wrong: %v", k.Nest.Dims)
	}
	// Every level/dim must have a positive blocking factor.
	for l := 0; l < NumLevels; l++ {
		for d := 0; d < NumDims; d++ {
			if k.Nest.Levels[l][d].Blk == 0 {
				t.Fatalf("level %d dim %d has zero blocking", l, d)
			}
		}
	}
	// Chip level reflects the tile split.
	if int(k.Nest.Levels[LevelChip][DimN].Blk) != k.Blocking.SplitN {
		t.Fatal("chip-level N factor must equal SplitN")
	}
	// Array level fits the PE array.
	if k.Nest.Levels[LevelArray][DimM].Blk > uint16(cfg.PERows) {
		t.Fatal("array-level M exceeds PE rows")
	}
	if k.Nest.Levels[LevelArray][DimC].Blk > uint16(cfg.PECols) {
		t.Fatal("array-level C exceeds PE cols")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	for _, units := range []int{1, 7, 32, 128} {
		k, err := Generate(cfg, op, units, 6)
		if err != nil {
			t.Fatal(err)
		}
		enc := k.Encode()
		if len(enc) != MetaBytes {
			t.Fatalf("encoded size %d, want %d", len(enc), MetaBytes)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.CompiledUnits != k.CompiledUnits || dec.Tiles != k.Tiles {
			t.Fatalf("round trip identity: got %d/%d want %d/%d",
				dec.CompiledUnits, dec.Tiles, k.CompiledUnits, k.Tiles)
		}
		if dec.Nest != k.Nest {
			t.Fatalf("round trip nest mismatch at units=%d", units)
		}
		if dec.Blocking != k.Blocking {
			t.Fatalf("round trip blocking: got %+v want %+v", dec.Blocking, k.Blocking)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 64)
	k, err := Generate(cfg, op, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	enc := k.Encode()
	enc[40] ^= 0xFF // flip bits in the middle
	if _, err := Decode(enc); err == nil {
		t.Fatal("corrupted metadata accepted")
	}
	enc2 := k.Encode()
	enc2[0] = 0x00 // bad magic
	if _, err := Decode(enc2); err == nil {
		t.Fatal("bad magic accepted")
	}
	enc3 := k.Encode()
	enc3[1] = 0x7F                      // bad version
	enc3[MetaBytes-1] ^= enc3[1] ^ 0x01 // keep the checksum consistent
	if _, err := Decode(enc3); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestSetSelectBestMatch(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	set, err := generateSet(cfg, op, []int{8, 32, 64, 128}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ actual, want int }{
		{0, 8}, {1, 8}, {8, 8}, {9, 32}, {32, 32}, {33, 64}, {100, 128}, {128, 128},
	}
	for _, tc := range cases {
		k, err := set.Select(tc.actual)
		if err != nil {
			t.Fatalf("Select(%d): %v", tc.actual, err)
		}
		if k.CompiledUnits != tc.want {
			t.Errorf("Select(%d) = %d, want %d", tc.actual, k.CompiledUnits, tc.want)
		}
	}
	if _, err := set.Select(129); err == nil {
		t.Fatal("value beyond largest kernel must error")
	}
	if _, err := set.Select(-1); err == nil {
		t.Fatal("negative value must error")
	}
}

func TestSetValidation(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	k1, _ := Generate(cfg, op, 16, 4)
	k2, _ := Generate(cfg, op, 16, 4)
	if _, err := NewSet([]*Kernel{k1, k2}); err == nil {
		t.Fatal("duplicate compiled values accepted")
	}
	if _, err := NewSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestSetStorageWithinBudget(t *testing.T) {
	// Paper: 25.6 kB budget, 128 B kernels, so 33 kernels per operator after
	// tile sharing. A sampled set must fit.
	cfg := hw.Default()
	op := convOp(t, 8192)
	vals := make([]int, 0, cfg.MaxKernelsPerOperator())
	for i := 1; i <= cfg.MaxKernelsPerOperator(); i++ {
		vals = append(vals, i*8192/cfg.MaxKernelsPerOperator())
	}
	set, err := generateSet(cfg, op, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	budgetPerOp := cfg.KernelBudgetBytes / cfg.TileShareFactor
	if set.StorageBytes() > budgetPerOp {
		t.Fatalf("set uses %d B, budget %d B", set.StorageBytes(), budgetPerOp)
	}
	if set.Len() != cfg.MaxKernelsPerOperator() {
		t.Fatalf("set len = %d", set.Len())
	}
}

func TestValuesSorted(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 128)
	set, err := generateSet(cfg, op, []int{64, 8, 128, 32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := set.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("values not sorted: %v", vals)
		}
	}
}

// Property: Select always returns the minimal compiled value >= actual.
func TestQuickSelectMinimality(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 256)
	set, err := generateSet(cfg, op, []int{4, 16, 64, 256}, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		actual := int(raw) % 257
		k, err := set.Select(actual)
		if err != nil {
			return false
		}
		if k.CompiledUnits < actual {
			return false
		}
		for _, v := range set.Values() {
			if v >= actual && v < k.CompiledUnits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode is the identity for arbitrary generated kernels.
func TestQuickEncodeDecode(t *testing.T) {
	cfg := hw.Default()
	op := convOp(t, 1024)
	f := func(u uint16, tl uint8) bool {
		units := int(u)%1024 + 1
		tiles := int(tl)%12 + 1
		k, err := Generate(cfg, op, units, tiles)
		if err != nil {
			return false
		}
		dec, err := Decode(k.Encode())
		if err != nil {
			return false
		}
		return dec.Nest == k.Nest && dec.CompiledUnits == k.CompiledUnits &&
			dec.Tiles == k.Tiles && dec.Blocking == k.Blocking
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := hw.Default()
	op := convOp(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, op, 128, 12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	cfg := hw.Default()
	op := convOp(b, 128)
	k, err := Generate(cfg, op, 128, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Encode()
	}
}

// generateSet compiles an uncached kernel store: one Generate per value.
func generateSet(cfg hw.Config, op *graph.Op, values []int, tiles int) (*Set, error) {
	ks := make([]*Kernel, 0, len(values))
	for _, v := range values {
		k, err := Generate(cfg, op, v, tiles)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return NewSet(ks)
}
