package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/runner"
	"repro/internal/workload"
)

// hashBatches digests every field of every batch: index, units, density and
// each switch's branch lists, switches in ID order.
func hashBatches(bs []workload.Batch) uint64 {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, b := range bs {
		put(uint64(b.Index))
		put(uint64(b.Units))
		put(math.Float64bits(b.Density))
		sws := make([]graph.OpID, 0, len(b.Routing))
		for sw := range b.Routing {
			sws = append(sws, sw)
		}
		slices.Sort(sws)
		for _, sw := range sws {
			put(uint64(sw))
			for _, br := range b.Routing[sw].Branch {
				put(uint64(len(br)))
				for _, u := range br {
					put(uint64(u))
				}
			}
		}
	}
	return h.Sum64()
}

func hashTrace(tr *BatchTrace) [2]uint64 {
	return [2]uint64{hashBatches(tr.Warmup), hashBatches(tr.Measured)}
}

// A shared trace is read-only: running all six Figure 9 designs on it at
// once leaves every batch as generated, and each design's result equals a
// run on a trace of its own. Under -race this also audits the concurrent
// reads.
func TestSharedTraceIsReadOnly(t *testing.T) {
	rc := quickRC()
	designs := Figure9Designs()
	for _, model := range models.Names() {
		tr, err := NewBatchTrace(model, rc)
		if err != nil {
			t.Fatal(err)
		}
		before := hashTrace(tr)
		shared, err := runner.Map(len(designs), len(designs), func(i int) (metrics.RunResult, error) {
			return RunOnTrace(designs[i], tr, rc, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if after := hashTrace(tr); after != before {
			t.Fatalf("%s: running the designs changed the shared trace: %x -> %x", model, before, after)
		}
		for i, d := range designs {
			fresh, err := Run(d, model, rc)
			if err != nil {
				t.Fatal(err)
			}
			if shared[i] != fresh {
				t.Fatalf("%s/%s on the shared trace:\n%+v\nfresh trace:\n%+v", model, d, shared[i], fresh)
			}
		}
	}
}

// RunOnTrace rejects a trace generated for another model or trace config;
// the hardware may differ.
func TestRunOnTraceChecksKey(t *testing.T) {
	rc := quickRC()
	tr, err := NewBatchTrace("skipnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	other := rc
	other.Seed++
	if _, err := RunOnTrace(DesignMTile, tr, other, nil); err == nil {
		t.Fatal("trace of seed 1 accepted for seed 2")
	}
	other = rc
	other.HW.NoCPerTileGBps /= 2
	if _, err := RunOnTrace(DesignMTile, tr, other, nil); err != nil {
		t.Fatalf("hardware variant rejected: %v", err)
	}
}
