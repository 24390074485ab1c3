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
	"repro/internal/sched"
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

func hashTrace(tr *batchTrace) [2]uint64 {
	return [2]uint64{hashBatches(tr.warmup), hashBatches(tr.measured)}
}

// A shared trace is read-only: running all six Figure 9 designs on it at
// once leaves every batch as generated, and each design's result equals a
// run on a trace of its own. Under -race this also audits the concurrent
// reads.
func TestSharedTraceIsReadOnly(t *testing.T) {
	rc := quickRC()
	designs := Figure9Designs()
	for _, model := range models.Names() {
		tr, err := newBatchTrace(model, rc)
		if err != nil {
			t.Fatal(err)
		}
		before := hashTrace(tr)
		shared, err := runner.Map(len(designs), len(designs), func(i int) (metrics.RunResult, error) {
			return runOnTrace(designs[i], tr, rc, nil)
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

// runOnTrace rejects a trace generated for another model or trace config;
// the hardware may differ.
func TestRunOnTraceChecksKey(t *testing.T) {
	rc := quickRC()
	tr, err := newBatchTrace("skipnet", rc)
	if err != nil {
		t.Fatal(err)
	}
	other := rc
	other.Seed++
	if _, err := runOnTrace(DesignMTile, tr, other, nil); err == nil {
		t.Fatal("trace of seed 1 accepted for seed 2")
	}
	other = rc
	other.HW.NoCPerTileGBps /= 2
	if _, err := runOnTrace(DesignMTile, tr, other, nil); err != nil {
		t.Fatalf("hardware variant rejected: %v", err)
	}
}

// A trace slot generates its trace on the first take, hands every job the
// same trace, and releases it once its last job has taken it.
func TestTraceSlotReleasesAfterLastTake(t *testing.T) {
	s := &traceSlot{model: "skipnet", rc: quickRC()}
	s.left.Store(3)
	first, err := s.take()
	if err != nil {
		t.Fatal(err)
	}
	if second, _ := s.take(); second != first {
		t.Fatal("jobs of one trace got different traces")
	}
	if s.tr == nil {
		t.Fatal("trace released before the last job took it")
	}
	if third, _ := s.take(); third != first {
		t.Fatal("last job got a different trace")
	}
	if s.tr != nil {
		t.Fatal("trace still held after the last job took it")
	}
}

// RunJobs workers share one trace's workload graph: every job on a trace
// runs on the same graph with a profiler of its own — periodic re-plans and
// a hardware variant included — and the results equal a serial run's. Under
// -race this audits the concurrent graph reads.
func TestRunJobsShareTraceGraph(t *testing.T) {
	rc := quickRC()
	slowNoC := rc
	slowNoC.HW.NoCPerTileGBps /= 2
	resample := func(p *sched.Policy) { p.ResamplePeriod = 4 }
	var jobs []Job
	for _, model := range []string{"tutel-moe", "skipnet"} {
		for _, d := range Figure9Designs() {
			jobs = append(jobs, Job{Design: d, Model: model, RC: rc})
		}
		jobs = append(jobs,
			Job{Design: DesignAdyna, Model: model, RC: rc, Policy: resample},
			Job{Design: DesignAdyna, Model: model, RC: slowNoC, Policy: resample})
	}
	parallel, err := RunJobs(4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunJobs(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if parallel[i] != serial[i] {
			t.Fatalf("job %d (%s on %s): 4 workers on shared graphs\n%+v\nserial\n%+v", i, j.Design, j.Model, parallel[i], serial[i])
		}
	}
}
