package main

import (
	"fmt"
	"io"
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

// pairFixture renders -count runs of two entries: A's ns/op and allocs/op
// per run, and B at a fixed reading.
func pairFixture(ns, allocs []int) string {
	var b strings.Builder
	b.WriteString("goos: linux\npkg: example\n")
	for i := range ns {
		fmt.Fprintf(&b, "BenchmarkA-2 \t 1\t %d ns/op\t %d B/op\t %d allocs/op\n", ns[i], 10*allocs[i], allocs[i])
		b.WriteString("BenchmarkB-2 \t 1\t 500 ns/op\n")
	}
	b.WriteString("PASS\n")
	return b.String()
}

func TestPairRunsPairsByPosition(t *testing.T) {
	parent, err := parseBenchOutput(strings.NewReader(pairFixture([]int{100, 110, 120}, []int{50, 50, 50})))
	if err != nil {
		t.Fatal(err)
	}
	change, err := parseBenchOutput(strings.NewReader(pairFixture([]int{60, 130}, []int{40, 40}) + "BenchmarkOnlyChange 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	entries := pairRuns(parent, change)
	if len(entries) != 2 || entries[0].name != "A-2" || entries[1].name != "B-2" {
		t.Fatalf("entries = %+v, want A-2 and B-2 (OnlyChange has no parent runs)", entries)
	}
	a := entries[0]
	if len(a.parent) != 2 || a.parent[1].nsPerOp != 110 || a.change[1].nsPerOp != 130 {
		t.Fatalf("A pairs = %+v / %+v, want the first two runs of each side", a.parent, a.change)
	}
	var out strings.Builder
	if failures := pairCheck(&out, entries, 0.3, 1.0, true); len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	for _, want := range []string{
		"A-2 (2 pairs)",
		"ns/op     parent 105 [98, 112]  change 95 [42, 148]  ratio 0.905  wins 1/2",
		"B/op      parent 500 [500, 500]  change 400 [400, 400]  ratio 0.800  wins 2/2",
		"allocs/op parent 50 [50, 50]  change 40 [40, 40]  ratio 0.800  wins 2/2",
		"B-2 (2 pairs)\n  ns/op     parent 500 [500, 500]  change 500 [500, 500]  ratio 1.000  wins 0/2\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "allocs/op") != 1 {
		t.Errorf("report prints allocs/op for B-2, which was run without -benchmem:\n%s", out.String())
	}
}

func TestPairCheckGatesMedians(t *testing.T) {
	runs := func(ns, allocs []int) []measurement {
		ms, err := parseBenchOutput(strings.NewReader(pairFixture(ns, allocs)))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	parent := runs([]int{100, 100, 100, 100}, []int{100, 100, 100, 100})
	// One outlier pair per metric does not move the median past the gate.
	ok := runs([]int{150, 190, 500, 120}, []int{120, 125, 200, 110})
	if failures := pairCheck(io.Discard, pairRuns(parent, ok), 0.3, 1.0, true); len(failures) != 0 {
		t.Errorf("within tolerance: failures = %v", failures)
	}
	bad := runs([]int{250, 260, 100, 240}, []int{140, 150, 100, 135})
	failures := pairCheck(io.Discard, pairRuns(parent, bad), 0.3, 1.0, true)
	joined := strings.Join(failures, "\n")
	if len(failures) != 2 || !strings.Contains(joined, "A-2: median 138 allocs/op") || !strings.Contains(joined, "A-2: median 245 ns/op") {
		t.Errorf("failures = %v, want A-2's allocs/op and ns/op", failures)
	}
	if failures := pairCheck(io.Discard, pairRuns(parent, bad), 0.3, 1.0, false); len(failures) != 1 || strings.Contains(failures[0], "ns/op") {
		t.Errorf("wall-clock off: failures = %v, want only allocs/op", failures)
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..8], n=4) == [2.25, 4.5, 6.75]
	q1, q3 := quartiles([]float64{8, 1, 7, 2, 6, 3, 5, 4})
	if q1 != 2.25 || q3 != 6.75 {
		t.Errorf("quartiles = %v, %v, want 2.25, 6.75", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
