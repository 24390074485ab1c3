// Command perfbench is the repository benchmark. It runs one named workload
// at a given seed for a given time, checks that the outputs are correct, and
// prints every metric by name with its unit. Build and run it from the
// repository root through run.sh:
//
//	bash perfbench/run.sh --workload serve-drift --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 they are the
// per-layer ones from a traced run. The lines before it are a readable
// report: environment, outcome digest, sample counts and virtual metrics.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-matrix, serve-drift, fleet-affinity, tenants")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "host seconds to measure for (whole passes; at least one)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	res, err := runWorkload(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, 1, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 0.5) }

// runWorkload measures one workload and writes the readable report to out.
// scale shrinks every stream and trace length (1 is the benchmark; the smoke
// test runs less).
func runWorkload(out io.Writer, w workloadDef, seed int64, budget time.Duration, traced bool, scale float64, spansPath string) (result, error) {
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d trace=%t\n", w.name, seed, traced)
	fmt.Fprintf(out, "env: %s\n", environment())
	var (
		passes []*pass
		res    result
		err    error
	)
	if traced {
		passes, res.Metrics, err = tracedRun(out, w, seed, scale, spansPath)
	} else {
		passes, res.Metrics, err = measuredRun(out, w, seed, budget, scale)
	}
	if err != nil {
		return result{}, err
	}
	first := passes[0]
	var problems []string
	for i, p := range passes {
		res.Attempted += p.requests
		problems = append(problems, p.chk.problems...)
		if d := p.chk.digest(); d != first.chk.digest() {
			problems = append(problems, fmt.Sprintf("pass %d outcome digest %s differs from pass 0's %s", i, d, first.chk.digest()))
		}
	}
	res.Correct = len(problems) == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}
	for _, p := range problems {
		fmt.Fprintln(out, "check failed:", p)
	}
	for _, n := range first.notes {
		fmt.Fprintln(out, "note:", n)
	}
	fmt.Fprintf(out, "passes: %d, digest: %s\n", len(passes), first.chk.digest())
	n := len(first.lats)
	fmt.Fprintf(out, "latency samples: %d (p99 has %d beyond it)\n", n, n-int(0.99*float64(n))-1)
	fmt.Fprintln(out, "virtual:", formatLayer(first.layer))
	return res, nil
}

// measuredRun repeats whole passes until the next one would overrun the
// budget, with tracing off, and reports the end-to-end metrics. Host
// timings are medians over passes (set-up: over every bring-up); virtual
// latencies come from the first pass, which every later pass must repeat
// exactly. The host timings are scaled to the reference host speed
// (probe.go); the report prints them unscaled too.
func measuredRun(out io.Writer, w workloadDef, seed int64, budget time.Duration, scale float64) ([]*pass, map[string]metricValue, error) {
	heap := watchHeap()
	start := time.Now()
	probes := probeHost(nil)
	var passes []*pass
	for {
		t := time.Now()
		p, err := w.run(seed, scale, passMode{})
		if err != nil {
			heap.p90MiB()
			return nil, nil, err
		}
		if len(passes) > 0 {
			// Only the first pass's samples are reported. Holding every
			// pass's would grow the live heap with the pass count, so a
			// faster program would read as a hungrier one.
			p.lats = nil
		}
		passes = append(passes, p)
		probes = probeHost(probes)
		last := time.Since(t)
		if time.Since(start)+last > budget {
			break
		}
	}
	heapMiB := heap.p90MiB()
	var setups, reqRates, batchRates []float64
	for _, p := range passes {
		setups = append(setups, p.setupS...)
		reqRates = append(reqRates, float64(p.requests)/p.runS)
		batchRates = append(batchRates, float64(p.batches)/p.runS)
	}
	probeS := median(probes)
	speed := probeRefS / probeS
	setupS, reqRate, batchRate := median(setups), median(reqRates), median(batchRates)
	fmt.Fprintf(out, "host: reference job %.6f s (%d runs), unscaled setup_s=%.6g sim_req_per_s=%.6g sim_batch_per_s=%.6g\n",
		probeS, len(probes), setupS, reqRate, batchRate)
	return passes, map[string]metricValue{
		"setup_s":          {setupS * speed, "s"},
		"sim_req_per_s":    {reqRate / speed, "req/s"},
		"sim_batch_per_s":  {batchRate / speed, "batch/s"},
		"live_heap_p90_mb": {heapMiB, "MiB"},
		"p50_cycles":       {passes[0].p50, "cycles"},
		"p99_cycles":       {passes[0].p99, "cycles"},
	}, nil
}

// tracedRun makes three passes: a plain one for allocation counts and the
// baseline wall time; one with spans around every public call and a CPU
// profile, for host time per layer and the runner metrics; and one with the
// machine telemetry recorder on, for the virtual busy split. The latter two
// must reproduce the plain pass's outcomes exactly.
func tracedRun(out io.Writer, w workloadDef, seed int64, scale float64, spansPath string) ([]*pass, map[string]metricValue, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	plain, err := w.run(seed, scale, passMode{})
	if err != nil {
		return nil, nil, err
	}
	plainWall := time.Since(t).Seconds()
	runtime.ReadMemStats(&after)

	spans := newSpanLog(seed)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	t = time.Now()
	profiled, err := w.run(seed, scale, passMode{spans: spans})
	profWall := time.Since(t).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	recorded, err := w.run(seed, scale, passMode{telemetry: true})
	if err != nil {
		return nil, nil, err
	}

	cpu, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	shares, cpuS := layerShares(cpu)
	if err := spans.write(spansPath); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "span self times (profiled pass, %.3f s wall; plain pass %.3f s):\n%s", profWall, plainWall, spanSummary(spans.selfTimes()))

	l := map[string]float64{}
	for k, v := range plain.layer {
		l[k] = v
	}
	req := float64(plain.requests)
	l["host.cpu_s"] = cpuS
	l["host.trace_overhead_x"] = profWall / plainWall
	l["host.allocs_per_req"] = float64(after.Mallocs-before.Mallocs) / req
	l["host.alloc_mb_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / req
	l["host.gc_cycles"] = float64(after.NumGC - before.NumGC)
	for _, layer := range hostLayers {
		l["host."+layer+"_share"] = shares[layer]
	}
	if len(profiled.jobS) > 0 {
		var sum, longest float64
		for _, s := range profiled.jobS {
			sum += s
			longest = max(longest, s)
		}
		l["runner.straggler_share"] = longest / sum
		l["runner.worker_util"] = sum / (float64(workers()) * profiled.runS)
	}
	l["virt.tile_busy_share"], l["virt.noc_busy_share"], l["virt.hbm_busy_share"] = recorded.busy.shares()
	l["virt.latency_samples"] = float64(len(plain.lats))

	m := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = metricValue{l[d.name], d.unit}
	}
	return []*pass{plain, profiled, recorded}, m, nil
}

// formatLayer renders the nonzero per-layer values of a pass, sorted by name.
func formatLayer(l map[string]float64) string {
	keys := make([]string, 0, len(l))
	for k, v := range l {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.6g", k, l[k])
	}
	return strings.Join(parts, " ")
}

// environment describes where the numbers were measured: CPU count,
// GOMAXPROCS, Go version, CPU model, and the source version — the git
// commit when the tree is a repository, else a digest of the Go sources.
func environment() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), sourceVersion())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sourceVersion() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(id))[:12]
			}
			return "unknown"
		}
		if len(ref) >= 12 {
			return ref[:12]
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
