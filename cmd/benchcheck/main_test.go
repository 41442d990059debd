package main

import (
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: github.com/crowd4u/crowd4u-go/internal/cylog
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkTransitiveClosure/seminaive-indexed-10k         	       1	 102021451 ns/op	117807760 B/op	    1477 allocs/op
BenchmarkTransitiveClosure/seminaive-indexed-10k-4       	       1	 102021451 ns/op	117807760 B/op	    1477 allocs/op
BenchmarkContainsAt/indexed-10000-4                      	  902322	      1334 ns/op
PASS
ok  	github.com/crowd4u/crowd4u-go/internal/cylog	12.3s
`

func TestParseBenchOutput(t *testing.T) {
	ms, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("parsed %d measurements, want 3: %+v", len(ms), ms)
	}
	m := ms[0]
	if m.name != "TransitiveClosure/seminaive-indexed-10k" {
		t.Errorf("name = %q", m.name)
	}
	if m.nsPerOp != 102021451 || !m.hasAllocs || m.allocsPerOp != 1477 {
		t.Errorf("metrics = %+v", m)
	}
	if ms[2].name != "ContainsAt/indexed-10000-4" || ms[2].hasAllocs {
		t.Errorf("ContainsAt parsed as %+v", ms[2])
	}
}

func TestMatchBaselineStripsGomaxprocsSuffix(t *testing.T) {
	base := map[string]baselineEntry{
		"TransitiveClosure/seminaive-indexed-10k": {NsPerOp: 1},
		"ScanEqAt/scan-10000":                     {NsPerOp: 2},
	}
	// Exact match wins, including names whose last segment is numeric.
	if e, key, ok := matchBaseline(base, "ScanEqAt/scan-10000"); !ok || key != "ScanEqAt/scan-10000" || e.NsPerOp != 2 {
		t.Errorf("exact numeric-suffix match failed: %v %q %v", e, key, ok)
	}
	// GOMAXPROCS suffix is stripped when the exact name is absent.
	if _, key, ok := matchBaseline(base, "TransitiveClosure/seminaive-indexed-10k-4"); !ok || key != "TransitiveClosure/seminaive-indexed-10k" {
		t.Errorf("suffix strip failed: %q %v", key, ok)
	}
	// On a multi-core host the numeric-suffix baseline is found by stripping
	// the appended "-4" from "scan-10000-4".
	if _, key, ok := matchBaseline(base, "ScanEqAt/scan-10000-4"); !ok || key != "ScanEqAt/scan-10000" {
		t.Errorf("numeric-suffix strip failed: %q %v", key, ok)
	}
	if _, _, ok := matchBaseline(base, "Unknown/bench"); ok {
		t.Error("unknown benchmark should not match")
	}
}

func TestCheckFlagsRegressionsAndMissing(t *testing.T) {
	base := map[string]baselineEntry{
		"A": {NsPerOp: 100, AllocsPerOp: 1000},
		"B": {NsPerOp: 100},
		"C": {NsPerOp: 100},
	}
	measured := []measurement{
		{name: "A", nsPerOp: 150, allocsPerOp: 1400, hasAllocs: true}, // allocs over 30%
		{name: "B", nsPerOp: 250},                                     // ns over 100%
		// C missing entirely.
		{name: "D", nsPerOp: 5}, // no baseline: note only
	}
	failures := check(base, measured, 0.30, 1.0, true)
	if len(failures) != 3 {
		t.Fatalf("failures = %v, want 3", failures)
	}
	joined := strings.Join(failures, "\n")
	for _, want := range []string{"A: 1400 allocs/op", "B: 250 ns/op", "C: baseline benchmark was not measured"} {
		if !strings.Contains(joined, want) {
			t.Errorf("failures missing %q:\n%s", want, joined)
		}
	}

	// Within tolerance: no failures.
	okMeasured := []measurement{
		{name: "A", nsPerOp: 120, allocsPerOp: 1200, hasAllocs: true},
		{name: "B", nsPerOp: 180},
		{name: "C", nsPerOp: 90},
	}
	if failures := check(base, okMeasured, 0.30, 1.0, true); len(failures) != 0 {
		t.Errorf("unexpected failures: %v", failures)
	}

	// Wall-clock checks disabled: only alloc regressions fire.
	failures = check(base, measured, 0.30, 1.0, false)
	joined = strings.Join(failures, "\n")
	if strings.Contains(joined, "ns/op") {
		t.Errorf("ns/op failure with wall-clock checks disabled:\n%s", joined)
	}
	if !strings.Contains(joined, "allocs/op") {
		t.Errorf("alloc regression not flagged:\n%s", joined)
	}
}

func TestFlattenMergesGroups(t *testing.T) {
	flat := flatten(map[string]map[string]baselineEntry{
		"cylog":    {"A": {NsPerOp: 1}},
		"relstore": {"B": {NsPerOp: 2}},
	})
	if len(flat) != 2 || flat["A"].NsPerOp != 1 || flat["B"].NsPerOp != 2 {
		t.Errorf("flatten = %+v", flat)
	}
}
