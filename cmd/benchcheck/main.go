// Command benchcheck is the CI benchmark-regression gate: it parses `go test
// -bench` output, compares every benchmark against the baselines recorded in
// BENCH_cylog.json and fails when a metric regresses beyond its tolerance.
//
//	make bench BENCHTIME=1x > bench.out
//	go run ./cmd/benchcheck -baseline BENCH_cylog.json -input bench.out
//
// Two metrics are gated differently:
//
//   - allocs/op is near-deterministic for a fixed workload, so it is checked
//     on every host with a tight tolerance (default 0.30, i.e. +30%). The
//     binding-row layout and the relstore bucket storage live and die by
//     this number; a regression means an optimisation silently stopped
//     applying.
//   - ns/op varies with hardware, so it is only checked when the host has at
//     least the baseline's wallclock_min_cores cores (CI runners qualify,
//     laptops on battery may not) and with a loose tolerance (default 1.0,
//     i.e. fail only past 2x) that catches real cliffs — an index or frontier
//     hash no longer engaging — rather than scheduler noise.
//
// Baseline entries that are missing from the run fail the gate (a silently
// deleted benchmark is a lost regression guard); measured benchmarks without
// a baseline only warn, so adding a benchmark does not require refreshing
// baselines in the same commit.
//
// With -pair it judges a change against its parent from runs taken in
// alternation on the same host instead (see pair.go):
//
//	go run ./cmd/benchcheck -pair parent.out change.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// baselineEntry is one benchmark's recorded numbers in BENCH_cylog.json.
type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// baselineFile mirrors the parts of BENCH_cylog.json benchcheck reads.
type baselineFile struct {
	Benchmarks map[string]map[string]baselineEntry `json:"benchmarks"`
	Benchcheck struct {
		AllocTolerance     float64 `json:"alloc_tolerance"`
		WallclockTolerance float64 `json:"wallclock_tolerance"`
		WallclockMinCores  int     `json:"wallclock_min_cores"`
	} `json:"benchcheck"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	name        string
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasAllocs   bool
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_cylog.json", "baseline JSON file")
		inputPath    = flag.String("input", "-", "bench output file ('-' = stdin)")
		allocTol     = flag.Float64("alloc-tolerance", -1, "allocs/op slack fraction (overrides baseline config)")
		wallTol      = flag.Float64("wallclock-tolerance", -1, "ns/op slack fraction (overrides baseline config)")
		minCores     = flag.Int("min-cores", -1, "cores required for wall-clock checks (overrides baseline config)")
		skipWall     = flag.Bool("skip-wallclock", false, "skip ns/op checks regardless of cores")
		pair         = flag.Bool("pair", false, "judge paired runs: -pair parent.out change.out")
	)
	flag.Parse()

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cfg := base.Benchcheck
	if *allocTol >= 0 {
		cfg.AllocTolerance = *allocTol
	}
	if *wallTol >= 0 {
		cfg.WallclockTolerance = *wallTol
	}
	if *minCores >= 0 {
		cfg.WallclockMinCores = *minCores
	}
	checkWall := !*skipWall && runtime.NumCPU() >= cfg.WallclockMinCores
	if !checkWall {
		fmt.Printf("benchcheck: skipping wall-clock checks (host cores %d < required %d or -skip-wallclock)\n",
			runtime.NumCPU(), cfg.WallclockMinCores)
	}

	if *pair {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-pair takes two bench outputs: parent.out change.out"))
		}
		parent, err := readBenchFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		change, err := readBenchFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		failures := pairCheck(os.Stdout, pairRuns(parent, change), cfg.AllocTolerance, cfg.WallclockTolerance, checkWall)
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		if len(failures) > 0 {
			fmt.Printf("benchcheck: %d regression(s) of %s against %s\n", len(failures), flag.Arg(1), flag.Arg(0))
			os.Exit(1)
		}
		return
	}

	measured, err := readBenchFile(*inputPath)
	if err != nil {
		fatal(err)
	}
	failures := check(flatten(base.Benchmarks), measured, cfg.AllocTolerance, cfg.WallclockTolerance, checkWall)
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		fmt.Printf("benchcheck: %d regression(s) against %s\n", len(failures), *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d benchmark(s) within tolerance of %s\n", len(measured), *baselinePath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(2)
}

// readBenchFile parses the bench output at path ('-' = stdin).
func readBenchFile(path string) ([]measurement, error) {
	if path == "-" {
		return parseBenchOutput(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBenchOutput(f)
}

func loadBaseline(path string) (*baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if base.Benchcheck.AllocTolerance == 0 {
		base.Benchcheck.AllocTolerance = 0.30
	}
	if base.Benchcheck.WallclockTolerance == 0 {
		base.Benchcheck.WallclockTolerance = 1.0
	}
	if base.Benchcheck.WallclockMinCores == 0 {
		base.Benchcheck.WallclockMinCores = 2
	}
	return &base, nil
}

// flatten merges the per-package benchmark groups into one name->entry map
// (group names are disjoint across packages).
func flatten(groups map[string]map[string]baselineEntry) map[string]baselineEntry {
	out := make(map[string]baselineEntry)
	for _, group := range groups {
		for name, e := range group {
			out[name] = e
		}
	}
	return out
}

// parseBenchOutput extracts benchmark result lines ("BenchmarkName N value
// ns/op [bytes B/op allocs allocs/op]") from go test -bench output.
func parseBenchOutput(r io.Reader) ([]measurement, error) {
	var out []measurement
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		m := measurement{name: strings.TrimPrefix(fields[0], "Benchmark")}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				m.nsPerOp = val
				ok = true
			case "B/op":
				m.bytesPerOp = val
			case "allocs/op":
				m.allocsPerOp = val
				m.hasAllocs = true
			}
		}
		if ok {
			out = append(out, m)
		}
	}
	return out, sc.Err()
}

// matchBaseline finds the baseline entry for a measured benchmark name. The
// go tool appends "-<GOMAXPROCS>" to benchmark names when GOMAXPROCS > 1, so
// the exact name is tried first and then the name with a trailing all-digit
// segment stripped (exact-first keeps names with legitimate numeric suffixes
// like "scan-10000" unambiguous).
func matchBaseline(base map[string]baselineEntry, name string) (baselineEntry, string, bool) {
	if e, ok := base[name]; ok {
		return e, name, true
	}
	if i := strings.LastIndex(name, "-"); i > 0 {
		suffix := name[i+1:]
		if _, err := strconv.Atoi(suffix); err == nil {
			stripped := name[:i]
			if e, ok := base[stripped]; ok {
				return e, stripped, true
			}
		}
	}
	return baselineEntry{}, "", false
}

// check compares measurements against baselines and returns failure messages.
func check(base map[string]baselineEntry, measured []measurement, allocTol, wallTol float64, checkWall bool) []string {
	var failures []string
	seen := make(map[string]bool, len(base))
	for _, m := range measured {
		entry, key, ok := matchBaseline(base, m.name)
		if !ok {
			fmt.Printf("note: %s has no baseline (refresh BENCH_cylog.json to gate it)\n", m.name)
			continue
		}
		seen[key] = true
		if entry.AllocsPerOp > 0 && m.hasAllocs {
			limit := entry.AllocsPerOp * (1 + allocTol)
			if m.allocsPerOp > limit {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f allocs/op exceeds baseline %.0f by more than %.0f%%",
					m.name, m.allocsPerOp, entry.AllocsPerOp, allocTol*100))
			} else if m.allocsPerOp < entry.AllocsPerOp/(1+allocTol) {
				fmt.Printf("note: %s improved to %.0f allocs/op (baseline %.0f) — consider refreshing baselines\n",
					m.name, m.allocsPerOp, entry.AllocsPerOp)
			}
		}
		if checkWall && entry.NsPerOp > 0 {
			limit := entry.NsPerOp * (1 + wallTol)
			if m.nsPerOp > limit {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f ns/op exceeds baseline %.0f by more than %.0f%%",
					m.name, m.nsPerOp, entry.NsPerOp, wallTol*100))
			}
		}
	}
	for name := range base {
		if !seen[name] {
			failures = append(failures, fmt.Sprintf("%s: baseline benchmark was not measured (removed or renamed?)", name))
		}
	}
	return failures
}
