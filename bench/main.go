// Command bench is the repository benchmark. It hosts the real crowd
// service in-process — api.Server over platform.Platform on a loopback
// listener, with crowdserve's served defaults — and drives one project
// through at most two sending connections plus one WebSocket event stream,
// under one of four seeded workloads. It prints every metric by name with
// its unit, checks the served fixpoint against a from-scratch reference,
// and ends with a one-line JSON result. See README.md for the workloads,
// the metrics and the commands.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed    int64
	window  time.Duration
	traced  bool
	smoke   bool
	workDir string // per-process scratch under the build directory
	out     string // results file, one JSON line per workload run
	spans   string // spans.jsonl of traced runs
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed of the schedules, feed offsets and answer values")
		seconds = fs.Int("seconds", 25, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports the per-layer metrics")
		out     = fs.String("out", "", "append each workload's result to this file as a JSON line")
		smoke   = fs.Bool("smoke", false, "tiny sizes and a 1 s window, to exercise the harness")
		compare = fs.Bool("compare", false, "compare two results files: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", filepath.Join("bench", "baseline.json"), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: usage: -workload <name|all> -seed N -seconds S -trace 0|1")
		return 2
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "CYLOG_") {
			fmt.Fprintf(stderr, "bench: refusing to run with %s set: runs must use the served defaults\n", kv[:strings.IndexByte(kv, '=')])
			return 2
		}
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, smoke: *smoke, out: *out,
		spans: filepath.Join(buildDir, "spans.jsonl")}
	if cfg.smoke {
		cfg.window = time.Second
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	if cfg.traced {
		if err := os.Remove(cfg.spans); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	h := currentHost()
	fmt.Fprintf(stdout, "# host goos=%s goarch=%s cpus=%d gomaxprocs=%d go=%s seed=%d window=%s trace=%d\n",
		h.GOOS, h.GOARCH, h.CPUs, h.GOMAXPROCS, h.Go, cfg.seed, cfg.window, *trace)
	var results []result
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res.print(stdout)
		if res.checkErr != nil {
			fmt.Fprintf(stderr, "bench: %s: correctness check failed: %v\n", w.name, res.checkErr)
		}
		if cfg.out != "" {
			if err := res.append(cfg.out, cfg, h); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		results = append(results, res)
	}
	line, correct := summary(results, cfg.traced)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// buildDir holds the benchmark's binary, caches and scratch files; it is
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// result is one workload's outcome.
type result struct {
	w         workload
	metrics   []metric
	attempted int
	failed    int
	checkErr  error
}

// runWorkload runs one workload: an untraced pass with repeated set-ups
// for the end-to-end metrics, or, when traced, an untraced pass followed
// by a traced pass of the same seed and length for the per-layer metrics.
func runWorkload(w workload, cfg config) (result, error) {
	if cfg.smoke {
		w = w.smoke()
	}
	repeats := setupRepeats
	if cfg.traced || cfg.smoke {
		repeats = 1
	}
	plain, err := runPass(w, cfg.seed, cfg.window, cfg.workDir, repeats, nil)
	if err != nil {
		return result{}, err
	}
	res := result{w: w, metrics: plain.e2e(), attempted: plain.requests, failed: plain.failures(), checkErr: plain.checkErr}
	if !cfg.traced {
		return res, nil
	}
	tr := newTracer()
	traced, err := runPass(w, cfg.seed, cfg.window, cfg.workDir, 1, tr)
	if err != nil {
		return result{}, err
	}
	res.metrics = traced.layers(tr, find(res.metrics, "answer_fixpoint_p50_ms").value)
	res.attempted += traced.requests
	res.failed += traced.failures()
	if res.checkErr == nil {
		res.checkErr = traced.checkErr
	}
	if err := tr.writeSpans(cfg.spans, w.name); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

func find(ms []metric, name string) metric {
	for _, m := range ms {
		if m.name == name {
			return m
		}
	}
	return metric{}
}

func (r result) print(w io.Writer) {
	for _, m := range r.metrics {
		note := ""
		if !m.ok {
			note = "  unsupported: fewer than 10 samples beyond this percentile"
		}
		fmt.Fprintf(w, "%-19s %-34s %16.6f %-6s n=%d%s\n", r.w.name, m.name, m.value, m.unit, m.n, note)
	}
	verdict := "correct"
	if r.checkErr != nil {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%-19s %-34s %s (%d of %d operations failed)\n", r.w.name, "check", verdict, r.failed, r.attempted)
}

// host describes the machine a result was measured on.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() host {
	return host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// record is one line of a results file.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     int                  `json:"trace"`
	Host      host                 `json:"host"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// append writes the result to the results file as one JSON line, leaving
// out percentiles the sample does not support.
func (r result) append(path string, cfg config, h host) error {
	rec := record{Workload: r.w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Host: h,
		Correct: r.checkErr == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]outMetric{}}
	if cfg.traced {
		rec.Trace = 1
	}
	for _, m := range r.metrics {
		if m.ok {
			rec.Metrics[m.name] = outMetric{Value: m.value, Unit: m.unit, Samples: m.n}
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary is the final output line: {"correct", "attempted", "failed",
// "metrics"}, holding the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one. With several workloads each metric
// name is prefixed by its workload.
func summary(results []result, traced bool) (string, bool) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Correct = out.Correct && r.checkErr == nil
		out.Attempted += r.attempted
		out.Failed += r.failed
		byName := map[string]metric{}
		for _, m := range r.metrics {
			byName[m.name] = m
		}
		for _, n := range names {
			key := n.name
			if len(results) > 1 {
				key = r.w.name + "." + n.name
			}
			out.Metrics[key] = value{Value: byName[n.name].value, Unit: n.unit}
		}
	}
	line, _ := json.Marshal(out) // plain structs of numbers and strings
	return string(line), out.Correct
}
