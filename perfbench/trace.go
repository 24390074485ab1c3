package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// span is one timed call the benchmark made into a layer of the program.
// Start and End are host nanoseconds since the span log opened; Parent is 0
// for a root span; Run is the workload seed, which ties the spans of one run
// together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, which is how the untraced run uses the same
// code. Safe for concurrent use: the matrix runner times jobs on several
// goroutines.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	run   int64
	spans []span
}

func newSpanLog(run int64) *spanLog { return &spanLog{t0: time.Now(), run: run} }

// timed runs fn, returns its host wall time in seconds, and records it as a
// span named name under parent. fn receives its own span id so calls it
// makes can nest under it.
func (l *spanLog) timed(name string, parent int, fn func(id int) error) (float64, error) {
	id := 0
	if l != nil {
		l.mu.Lock()
		id = len(l.spans) + 1
		l.spans = append(l.spans, span{ID: id, Parent: parent, Run: l.run, Name: name})
		l.mu.Unlock()
	}
	start := time.Now()
	err := fn(id)
	end := time.Now()
	if l != nil {
		l.mu.Lock()
		l.spans[id-1].Start = start.Sub(l.t0).Nanoseconds()
		l.spans[id-1].End = end.Sub(l.t0).Nanoseconds()
		l.mu.Unlock()
	}
	return end.Sub(start).Seconds(), err
}

// selfTimes returns each span name's total self time in seconds: a span's
// duration minus the part of it its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	child := map[int]int64{}
	for _, s := range l.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range l.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			// Children ran concurrently (runner jobs) and overlap.
			self = 0
		}
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// write stores the spans as a JSON array at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// heapWatch samples the live heap (as of the most recent GC) every
// millisecond in the background.
type heapWatch struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		rtmetrics.Read(sample)
		if sample[0].Value.Kind() == rtmetrics.KindUint64 {
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// p90MiB stops the watcher, waits for it to exit, and returns the live heap
// the run stayed under 90% of the time, in MiB. The maximum is not reported:
// it is set by whichever collection lands on a short allocation spike (on
// the matrix, two large jobs the runner happens to overlap), and at one seed
// it moves by half from run to run, while this percentile repeats within a
// few percent.
func (h *heapWatch) p90MiB() float64 {
	close(h.stop)
	<-h.done
	return metrics.Percentile(h.samples, 0.90) / (1 << 20)
}

// busySplit sums the virtual busy cycles of the telemetry recorder's span
// families: kernel spans on the tile tracks, NoC transfers, and HBM
// accesses.
type busySplit struct{ tile, noc, hbm int64 }

func (b *busySplit) add(tr *telemetry.Trace) {
	for _, r := range tr.Recorders() {
		for _, e := range r.Events() {
			if e.Phase != 'X' {
				continue
			}
			switch e.Cat {
			case "kernel":
				b.tile += e.Dur
			case "noc":
				b.noc += e.Dur
			case "hbm":
				b.hbm += e.Dur
			}
		}
	}
}

// shares returns each family's share of the summed busy cycles.
func (b busySplit) shares() (tile, noc, hbm float64) {
	t := float64(b.tile + b.noc + b.hbm)
	if t == 0 {
		return 0, 0, 0
	}
	return float64(b.tile) / t, float64(b.noc) / t, float64(b.hbm) / t
}

// spanSummary renders the per-name self times, largest first.
func spanSummary(self map[string]float64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("  %-24s %8.3f s\n", n, self[n])
	}
	return s
}
