package sched

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

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
					got, gerr := c.forConfig(cfg).kernel(op, units, tiles)
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
// compile of an (operator, dyn value, tiles) kernel costs after its first
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
		if _, err := km.kernel(op, op.MaxUnits, 8); err != nil {
			b.Fatal(err)
		}
	}
}
