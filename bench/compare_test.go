package main

import (
	"encoding/json"
	"os"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudgeAppliesTheComparisonRule(t *testing.T) {
	parent := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 100}
	lower := bound{Name: "latency", Better: "lower", Bound: 0.10}
	higher := bound{Name: "throughput", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		bd     bound
		want   string
		change float64
	}{
		{name: "faster on every pair", a: parent, b: scaled(parent, 0.8), bd: lower, want: "improved", change: -0.2},
		{name: "slower by more than the bound", a: parent, b: scaled(parent, 1.2), bd: lower, want: "worse", change: 0.2},
		{name: "slower within the bound", a: parent, b: scaled(parent, 1.05), bd: lower, want: "unchanged", change: 0.05},
		{name: "higher is better", a: parent, b: scaled(parent, 0.8), bd: higher, want: "worse", change: 0.2},
		{name: "parent too noisy", a: []float64{50, 150, 100, 60, 140, 100}, b: []float64{120, 80, 100, 130, 70, 100}, bd: lower, want: "unresolved", change: 0},
		// Every run is better, so the noise does not make it unresolved, but
		// the medians differ by less than the parent's interquartile range.
		{name: "noisy but every run better", a: []float64{50, 150, 100, 60, 140, 100}, b: []float64{40, 45, 42, 41, 44, 43}, bd: lower, want: "unchanged", change: -0.575},
		{name: "too few runs", a: []float64{1}, b: []float64{1}, bd: lower, want: "unresolved"},
	} {
		v := judge(tc.a, tc.b, tc.bd)
		if v.label != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, v.label, tc.want, v)
		}
		if tc.want != "unresolved" && (v.change-tc.change > 1e-9 || tc.change-v.change > 1e-9) {
			t.Errorf("%s: change %g, want %g", tc.name, v.change, tc.change)
		}
	}
}

func TestJudgeAbsoluteBound(t *testing.T) {
	bd := bound{Name: "failed_ratio", Better: "lower", Absolute: 0.001}
	zero := make([]float64, 10)
	if v := judge(zero, []float64{0, 0, 0.0005, 0, 0, 0, 0.0005, 0, 0, 0}, bd); v.label != "unchanged" {
		t.Errorf("failures within the absolute bound judged %q", v.label)
	}
	if v := judge(zero, []float64{0.002, 0.003, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002}, bd); v.label != "worse" {
		t.Errorf("failures beyond the absolute bound judged %q", v.label)
	}
}

// TestBenchmarkDefinitionMatchesCode keeps BENCHMARK.json, which the
// benchmark is run and judged by, in step with the metrics the code emits.
func TestBenchmarkDefinitionMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			bound
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(def.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range def.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s %s in BENCHMARK.json, %s %s in code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		largest = max(largest, m.Bound)
	}
	if def.EndToEnd[0].Name != "setup_s" || def.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s %s in BENCHMARK.json, %s %s in code", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if _, err := loadBounds("../BENCHMARK.json", "baseline.json"); err != nil {
		t.Fatal(err)
	}
}
