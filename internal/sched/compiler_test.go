package sched

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/models"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCompilerMatchesGenerate is the compile memo's soundness property: over
// every matrix operator of several models, three hardware configs and
// randomized (dyn value, tiles) pairs — error paths included — the memoized
// kernel equals the uncached kernels.Generate result on the miss and on the
// hit, and the hit returns the very kernel the miss stored.
func TestCompilerMatchesGenerate(t *testing.T) {
	derated := hw.Default()
	derated.HBMDerate = 0.5
	wide := hw.Default()
	wide.PERows *= 2
	cfgs := []hw.Config{hw.Default(), derated, wide}
	r := rand.New(rand.NewSource(11))
	for _, name := range []string{"tutel-moe", "skipnet", "gcn"} {
		w, err := models.ByName(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCompiler(w.Graph)
		for _, op := range w.Graph.Ops {
			if op.Space[0] == 0 {
				continue
			}
			for i := 0; i < 12; i++ {
				cfg := cfgs[r.Intn(len(cfgs))]
				units, tiles := r.Intn(op.MaxUnits+1), r.Intn(17) // 0 is an error path
				want, werr := kernels.Generate(cfg, op, units, tiles)
				var first *kernels.Kernel
				for trial := 0; trial < 2; trial++ { // miss, then hit
					got, gerr := c.forConfig(cfg).kernel(op, units, tiles, cfg.HBMBytesPerCycle())
					if errText(gerr) != errText(werr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s units=%d tiles=%d trial %d:\nmemo %+v, %v\nwant %+v, %v",
							name, op.Name, units, tiles, trial, got, gerr, want, werr)
					}
					if trial == 0 {
						first = got
					} else if got != first {
						t.Fatalf("%s %s units=%d tiles=%d: hit returned a different kernel", name, op.Name, units, tiles)
					}
				}
			}
		}
		lookups, searches := c.Stats()
		if searches != int64(c.Len()) || lookups <= searches {
			t.Fatalf("%s: %d lookups, %d searches for %d memoized kernels; want one search per kernel and some hits",
				name, lookups, searches, c.Len())
		}
	}
}

// TestCompilerResolveIsWarm checks that a repeat solve through one compiler
// runs no blocking search and encodes exactly like a one-shot solve.
func TestCompilerResolveIsWarm(t *testing.T) {
	for _, pol := range []Policy{Adyna(), AdynaStatic(), MTile()} {
		plan, w, prof := scheduleModel(t, "tutel-moe", pol, 8)
		c := NewCompiler(w.Graph)
		if _, err := c.Schedule(hw.Default(), pol, prof); err != nil {
			t.Fatal(err)
		}
		_, before := c.Stats()
		again, err := c.Schedule(hw.Default(), pol, prof)
		if err != nil {
			t.Fatal(err)
		}
		if _, after := c.Stats(); after != before {
			t.Fatalf("warm re-solve ran %d blocking searches, want 0", after-before)
		}
		var a, b bytes.Buffer
		if err := plan.Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := again.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("warm re-solve encodes differently from a one-shot solve")
		}
	}
}

// BenchmarkCompilerKernelCached measures a memo hit — what every repeat
// compile of a (shape class, dyn value, tiles) kernel costs after its first
// blocking search in the same bring-up.
func BenchmarkCompilerKernelCached(b *testing.B) {
	w, err := models.ByName("tutel-moe", 64)
	if err != nil {
		b.Fatal(err)
	}
	op := w.Graph.Ops[0]
	for _, o := range w.Graph.Ops {
		if o.Space[0] > 0 {
			op = o
			break
		}
	}
	km := NewCompiler(w.Graph).forConfig(hw.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := km.kernel(op, op.MaxUnits, 8, hw.Default().HBMBytesPerCycle()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKernelKeyRange checks the packed memo key: in-range fields round-trip
// without aliasing, and a dyn value or tile count outside its field bypasses
// the memo and still returns exactly what kernels.Generate does, never the
// kernel of the in-range key its low bits would alias.
func TestKernelKeyRange(t *testing.T) {
	unpack := func(k uint64) (graph.OpID, int, int) {
		return graph.OpID(k >> (keyUnitsBits + keyTilesBits)),
			int(k >> keyTilesBits & (1<<keyUnitsBits - 1)), int(k & (1<<keyTilesBits - 1))
	}
	r := rand.New(rand.NewSource(3))
	seen := map[uint64][3]int{}
	for i := 0; i < 10000; i++ {
		op, units, tiles := graph.OpID(r.Intn(1<<keyOpBits)), r.Intn(1<<keyUnitsBits), r.Intn(1<<keyTilesBits)
		switch i {
		case 0:
			op, units, tiles = 0, 0, 0
		case 1:
			op, units, tiles = 1<<keyOpBits-1, 1<<keyUnitsBits-1, 1<<keyTilesBits-1
		}
		k, ok := kernelKey(op, units, tiles)
		if !ok {
			t.Fatalf("(%d, %d, %d) rejected", op, units, tiles)
		}
		if o, u, ti := unpack(k); o != op || u != units || ti != tiles {
			t.Fatalf("(%d, %d, %d) unpacks as (%d, %d, %d)", op, units, tiles, o, u, ti)
		}
		if prev, dup := seen[k]; dup && prev != [3]int{int(op), units, tiles} {
			t.Fatalf("(%d, %d, %d) aliases %v", op, units, tiles, prev)
		}
		seen[k] = [3]int{int(op), units, tiles}
	}
	for _, f := range [][3]int{{-1, 1, 1}, {1 << keyOpBits, 1, 1}, {1, -1, 1}, {1, 1 << keyUnitsBits, 1}, {1, 1, -1}, {1, 1, 1 << keyTilesBits}} {
		if _, ok := kernelKey(graph.OpID(f[0]), f[1], f[2]); ok {
			t.Errorf("out-of-range fields %v accepted", f)
		}
	}

	w, err := models.ByName("tutel-moe", 64)
	if err != nil {
		t.Fatal(err)
	}
	var op *graph.Op
	for _, o := range w.Graph.Ops {
		if o.Space[0] > 0 {
			op = o
			break
		}
	}
	cfg := hw.Default()
	c := NewCompiler(w.Graph)
	for _, tc := range []struct{ units, tiles int }{
		{1<<keyUnitsBits + 3, 8}, // aliases units 3 when truncated
		{3, 1<<keyTilesBits + 8}, // aliases tiles 8 when truncated
		{-5, 8},
	} {
		if _, err := c.forConfig(cfg).kernel(op, 3, 8, cfg.HBMBytesPerCycle()); err != nil {
			t.Fatal(err)
		}
		want, werr := kernels.Generate(cfg, op, tc.units, tc.tiles)
		n := c.Len()
		for trial := 0; trial < 2; trial++ {
			got, gerr := c.forConfig(cfg).kernel(op, tc.units, tc.tiles, cfg.HBMBytesPerCycle())
			if errText(gerr) != errText(werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("units=%d tiles=%d: memo %+v, %v; want %+v, %v", tc.units, tc.tiles, got, gerr, want, werr)
			}
		}
		if c.Len() != n {
			t.Fatalf("units=%d tiles=%d: out-of-range kernel memoized", tc.units, tc.tiles)
		}
	}
}

// TestCompilerConcurrentUse drives one compiler from several goroutines at
// once — solves on different configs and on-demand full-kernel compiles —
// and checks every plan encodes exactly like a solve on a private compiler.
// Under -race it is the audit of the compiler's lock.
func TestCompilerConcurrentUse(t *testing.T) {
	_, w, prof := scheduleModel(t, "tutel-moe", Adyna(), 8)
	wide := hw.Default()
	wide.PERows *= 2
	type job struct {
		cfg hw.Config
		pol Policy
	}
	jobs := []job{{hw.Default(), Adyna()}, {wide, Adyna()}, {hw.Default(), FullKernelIdeal()}, {wide, MTile()}}
	shared := NewCompiler(w.Graph)
	got := make([][]byte, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := shared.Schedule(j.cfg, j.pol, prof)
			if err != nil {
				t.Error(err)
				return
			}
			for _, seg := range plan.Segments {
				for lead, op := range seg.Plans {
					for _, o := range op.Options {
						if _, err := plan.EvaluateEntityDensity(j.cfg, w.Graph, op, o, w.Graph.Op(lead).MaxUnits/3+1, 1); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
			var b bytes.Buffer
			if err := plan.Encode(&b); err != nil {
				t.Error(err)
			}
			got[i] = b.Bytes()
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		plan, err := NewCompiler(w.Graph).Schedule(j.cfg, j.pol, prof)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := plan.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], b.Bytes()) {
			t.Fatalf("job %d: a solve on the shared compiler encodes differently", i)
		}
	}
	if lookups, searches := shared.Stats(); searches != int64(shared.Len()) || lookups <= searches {
		t.Fatalf("%d lookups, %d searches for %d memoized kernels", lookups, searches, shared.Len())
	}
}

// TestSearchReadsOnlyShape pins the shape class the compile memo keys on:
// perturbing any graph.Op field outside shapeOf leaves the operator's class
// and kernels.Generate's blocking and loop nest unchanged, and perturbing any
// field inside it changes the class. A blocking search that starts reading
// another field fails here until the field joins shapeOf.
func TestSearchReadsOnlyShape(t *testing.T) {
	inShape := map[string]bool{"Kind": true, "MACsPerUnit": true, "InBytesPerUnit": true,
		"OutBytesPerUnit": true, "WeightBytes": true, "Space": true}
	cfg := hw.Default()
	for _, name := range []string{"tutel-moe", "skipnet", "gcn"} {
		w, err := models.ByName(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range w.Graph.ComputeOps() {
			op := w.Graph.Op(id)
			for _, at := range [][2]int{{1, 1}, {op.MaxUnits/3 + 1, 6}, {op.MaxUnits, 16}} {
				want, err := kernels.Generate(cfg, op, at[0], at[1])
				if err != nil {
					t.Fatal(err)
				}
				typ := reflect.TypeOf(*op)
				for i := 0; i < typ.NumField(); i++ {
					field := typ.Field(i).Name
					cp := *op
					perturb(t, field, reflect.ValueOf(&cp).Elem().Field(i))
					if inShape[field] {
						if shapeOf(&cp) == shapeOf(op) {
							t.Fatalf("perturbing %s leaves the shape class unchanged", field)
						}
						continue
					}
					if shapeOf(&cp) != shapeOf(op) {
						t.Fatalf("perturbing %s, outside the shape, changes the shape class", field)
					}
					got, err := kernels.Generate(cfg, &cp, at[0], at[1])
					if err != nil || *got != *want {
						t.Fatalf("%s %s at %v: perturbing %s changes the kernel:\n%+v, %v\nwant %+v",
							name, op.Name, at, field, got, err, want)
					}
				}
			}
		}
	}
}

// perturb changes v to a different value of its type.
func perturb(t *testing.T, field string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int()*3 + 7)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturb(t, field, v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	default:
		t.Fatalf("no perturbation for graph.Op field %s of kind %s", field, v.Kind())
	}
}

// TestMoEBringupSearchesEachShapeOnce is the counted gate on shape sharing: a
// moe bring-up runs exactly one blocking search per distinct (shape, dyn
// value, tiles) key of its kernel stores, fewer than its distinct (operator,
// dyn value, tiles) keys, because same-shape experts share their kernels.
func TestMoEBringupSearchesEachShapeOnce(t *testing.T) {
	_, w, prof := scheduleModel(t, "tutel-moe", Adyna(), 8)
	c := NewCompiler(w.Graph)
	plan, err := c.Schedule(hw.Default(), Adyna(), prof)
	if err != nil {
		t.Fatal(err)
	}
	type shapeKey struct {
		kind                   graph.Kind
		macs, in, out, weights int64
		space                  [6]int
		units, tiles           int
	}
	shapes, perOp := map[shapeKey]bool{}, map[[3]int]bool{}
	for _, seg := range plan.Segments {
		for lead, p := range seg.Plans {
			op := w.Graph.Op(lead)
			for _, o := range p.Options {
				for _, v := range o.StoredValues() {
					shapes[shapeKey{op.Kind, op.MACsPerUnit, op.InBytesPerUnit, op.OutBytesPerUnit,
						op.WeightBytes, op.Space, v, o.Tiles}] = true
					perOp[[3]int{int(lead), v, o.Tiles}] = true
				}
			}
		}
	}
	if len(shapes) >= len(perOp) {
		t.Fatalf("%d shape keys for %d operator keys: no operators share a shape, the gate checks nothing", len(shapes), len(perOp))
	}
	if _, searches := c.Stats(); searches != int64(len(shapes)) {
		t.Fatalf("moe bring-up ran %d blocking searches for %d distinct shape keys (%d operator keys)",
			searches, len(shapes), len(perOp))
	}
}
