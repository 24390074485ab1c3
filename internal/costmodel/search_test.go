package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
)

// optimizeLoop is the blocking search as one loop with the HBM rate inside
// the cost: every SplitN scheme priced at hbmRate, the first strict minimum
// wins. It is the reference that Search plus Choose must reproduce at every
// rate.
func optimizeLoop(cfg hw.Config, op *graph.Op, compiledUnits, tiles int, hbmRate float64) (Blocking, Eval, error) {
	if tiles < 1 {
		return Blocking{}, Eval{}, fmt.Errorf("costmodel: %s allocated %d tiles", op.Name, tiles)
	}
	if compiledUnits < 1 {
		return Blocking{}, Eval{}, fmt.Errorf("costmodel: %s compiled for %d units", op.Name, compiledUnits)
	}
	var (
		best     Blocking
		bestEval Eval
		bestCost = math.Inf(1)
	)
	for sn := 1; sn <= tiles && sn <= compiledUnits; sn++ {
		sm := tiles / sn
		if sm < 1 {
			continue
		}
		if m := op.Space[1]; m > 0 && sm > m {
			sm = m
		}
		blk := Blocking{
			SplitN:         sn,
			SplitM:         sm,
			NBlk:           dynBlock(compiledUnits, sn),
			WeightResident: weightsFit(cfg, op, sm),
		}
		ev, err := Evaluate(cfg, op, blk, compiledUnits, compiledUnits, tiles, true)
		if err != nil {
			continue
		}
		cost := float64(ev.Cycles) + float64(ev.HBMWeightBytes)/hbmRate
		if cost < bestCost {
			bestCost, best, bestEval = cost, blk, ev
		}
	}
	if math.IsInf(bestCost, 1) {
		return Blocking{}, Eval{}, fmt.Errorf("costmodel: no valid blocking for %s on %d tiles", op.Name, tiles)
	}
	return best, bestEval, nil
}

// checkChoices compares one Search, chosen at each rate, and Optimize at each
// derate with the reference loop: blocking, evaluation and error text alike.
// It reports how many rates put the two candidates at exactly equal cost.
func checkChoices(t testing.TB, op *graph.Op, units, tiles int, derates []float64) (ties int) {
	t.Helper()
	cfg := hw.Default()
	c, serr := Search(cfg, op, units, tiles)
	var rates []float64
	for _, d := range derates {
		dcfg := cfg
		dcfg.HBMDerate = d
		rates = append(rates, dcfg.HBMBytesPerCycle())
		blk, ev, err := Optimize(dcfg, op, units, tiles)
		wblk, wev, werr := optimizeLoop(cfg, op, units, tiles, dcfg.HBMBytesPerCycle())
		if blk != wblk || ev != wev || errString(err) != errString(werr) {
			t.Fatalf("%+v units=%d tiles=%d derate=%v: Optimize %+v %+v %v, loop %+v %+v %v",
				op, units, tiles, d, blk, ev, err, wblk, wev, werr)
		}
	}
	// The rate at which the streaming candidate's cost meets the resident
	// one's, where the lower SplitN must win; and the degenerate zero rate,
	// at which no candidate has a finite cost.
	r, s := c.Eval[0], c.Eval[1]
	if serr == nil && c.Blocking[0].SplitN > 0 && c.Blocking[1].SplitN > 0 && r.Cycles > s.Cycles {
		tie := float64(s.HBMWeightBytes) / float64(r.Cycles-s.Cycles)
		if float64(s.Cycles)+float64(s.HBMWeightBytes)/tie == float64(r.Cycles) {
			ties++
		}
		rates = append(rates, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	rates = append(rates, 0)
	for _, rate := range rates {
		wblk, wev, werr := optimizeLoop(cfg, op, units, tiles, rate)
		var (
			blk Blocking
			ev  Eval
			err = serr
		)
		if err == nil {
			var i int
			if i, err = c.Choose(op, rate); err == nil {
				blk, ev = c.Blocking[i], c.Eval[i]
			}
		}
		if blk != wblk || ev != wev || errString(err) != errString(werr) {
			t.Fatalf("%+v units=%d tiles=%d rate=%v: Search+Choose %+v %+v %v, loop %+v %+v %v",
				op, units, tiles, rate, blk, ev, err, wblk, wev, werr)
		}
	}
	return ties
}

// TestSearchMatchesOptimizeLoop is the property behind the compile memo's
// rate-free key: over random matrix and vector operators, dyn values and tile
// counts (zeros included, the error paths), one rate-free Search chosen at
// any HBM derate from 0.01 to 1 — and at a rate where its two candidates tie
// — returns exactly what a loop pricing the rate into every scheme returns.
func TestSearchMatchesOptimizeLoop(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ties := 0
	for i := 0; i < 3000; i++ {
		op := randOp(r, i)
		units, tiles := r.Intn(op.MaxUnits+1), r.Intn(33)
		derates := []float64{0, 1, 0.01}
		for j := 0; j < 4; j++ {
			derates = append(derates, 0.01+0.99*r.Float64())
		}
		ties += checkChoices(t, op, units, tiles, derates)
	}
	if ties == 0 {
		t.Fatal("no rate tied a resident and a streaming candidate; the tie-break went unchecked")
	}
}

// FuzzSearchMatchesOptimize drives the same comparison over fuzzed operator
// shapes: the kind picks a matrix or vector operator, the sizes are folded
// into ranges whose MAC counts fit comfortably in an int64, and the derate is
// folded into [0.01, 1].
func FuzzSearchMatchesOptimize(f *testing.F) {
	f.Add(uint8(0), uint16(64), uint16(128), uint8(14), uint8(3), uint32(12544), uint32(25088), uint32(147456), uint16(128), uint8(8), 0.5)
	f.Add(uint8(1), uint16(4096), uint16(4096), uint8(1), uint8(1), uint32(8192), uint32(8192), uint32(33554432), uint16(8), uint8(1), 1.0)
	f.Add(uint8(4), uint16(0), uint16(0), uint8(0), uint8(0), uint32(4096), uint32(4096), uint32(0), uint16(64), uint8(12), 0.01)
	f.Fuzz(func(t *testing.T, kind uint8, c, m uint16, side, window uint8, in, out, weights uint32, units uint16, tiles uint8, derate float64) {
		kinds := []graph.Kind{
			graph.KindConv2D, graph.KindMatMul, graph.KindAttention, graph.KindGate,
			graph.KindElementwise, graph.KindPool, graph.KindLayerNorm, graph.KindSoftmax,
		}
		op := &graph.Op{
			Name:            "fuzz",
			Kind:            kinds[int(kind)%len(kinds)],
			InBytesPerUnit:  int64(in),
			OutBytesPerUnit: int64(out),
			WeightBytes:     int64(weights),
		}
		if IsVector(op.Kind) {
			op.MACsPerUnit = 1 + int64(c)*int64(m)
		} else {
			cc, mm := 1+int(c)%4096, 1+int(m)%4096
			h, rs := 1+int(side)%64, 1+int(window)%7
			op.Space = [6]int{cc, mm, h, h, rs, rs}
			op.MACsPerUnit = int64(cc) * int64(mm) * int64(h*h) * int64(rs*rs)
		}
		d := math.Abs(derate)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			d = 1
		}
		d = 0.01 + 0.99*(d-math.Floor(d))
		checkChoices(t, op, int(units)%1024, int(tiles)%65, []float64{d})
	})
}
