package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against
// the program.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's metric and
// workload lists in step.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(list string, json []metricDef, prog []metricDef) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", list, len(json), len(prog))
			return
		}
		for i := range json {
			if json[i] != prog[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", list, i, json[i], prog[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// TestSmoke runs every workload at a twentieth of its length, untraced and
// traced, and fails on a failed correctness check or a missing, unitless or
// non-finite metric. End-to-end metrics must also be nonzero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want, name := endToEnd, w.name
			if traced {
				want, name = perLayer, w.name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				res, err := runWorkload(io.Discard, w, 7, time.Second, traced, 0.05, spans)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.name, m.Value)
					case !traced && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
				if traced {
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}
