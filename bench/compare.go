package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// bound is how far a metric may move the wrong way before a change counts
// as a regression: a share of the parent's median, or an absolute amount.
type bound struct {
	Name     string  `json:"name"`
	Better   string  `json:"better"` // "lower" or "higher"
	Bound    float64 `json:"bound"`
	Absolute float64 `json:"absolute,omitempty"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json and the
// bounds of the reported metrics it cannot list from the baseline file.
func loadBounds(benchPath, basePath string) ([]bound, error) {
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	var base struct {
		ExtraBounds []bound `json:"extra_bounds"`
	}
	for path, into := range map[string]any{benchPath: &def, basePath: &base} {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return append(def.EndToEnd, base.ExtraBounds...), nil
}

// readRecords reads the untraced results of a results file, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// verdict compares one metric of one workload across two sets of runs.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	nA, nB         int
	pairs, wins    int
	change         float64 // how much worse the change's median is: a share, or absolute
	label          string  // improved, unchanged, worse or unresolved
}

// judge applies the comparison rule. Runs pair up in file order. The
// change improved the metric when it wins at least nine tenths of the
// pairs (ties count for neither) and the medians differ by more than the
// parent's interquartile distance. It is worse when its median is worse
// than the parent's by more than the bound. When the parent's own spread
// exceeds the bound the result is unresolved, unless every run of the
// change reads better than every run of the parent.
func judge(a, b []float64, bd bound) verdict {
	v := verdict{nA: len(a), nB: len(b), pairs: min(len(a), len(b))}
	if v.nA < 2 || v.nB < 2 {
		v.label = "unresolved"
		return v
	}
	v.medA, v.medB = median(a), median(b)
	v.q1A, v.q3A = quartiles(a)
	v.q1B, v.q3B = quartiles(b)
	worse := 1.0 // sign that makes "worse" positive
	if bd.Better == "higher" {
		worse = -1
	}
	for i := 0; i < v.pairs; i++ {
		if worse*(b[i]-a[i]) < 0 {
			v.wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && worse*(y-x) < 0
		}
	}
	limit, spreadA := bd.Bound, (v.q3A-v.q1A)/math.Abs(v.medA)
	v.change = worse * (v.medB - v.medA) / math.Abs(v.medA)
	if bd.Absolute > 0 {
		limit, spreadA = bd.Absolute, v.q3A-v.q1A
		v.change = worse * (v.medB - v.medA)
	}
	improved := float64(v.wins) >= 0.9*float64(v.pairs) && worse*(v.medB-v.medA) < 0 && math.Abs(v.medB-v.medA) > v.q3A-v.q1A
	switch {
	case improved:
		v.label = "improved"
	case spreadA > limit && !allBetter:
		v.label = "unresolved"
	case v.change > limit:
		v.label = "worse"
	default:
		v.label = "unchanged"
	}
	return v
}

// compareFiles compares a parent's and a change's results files metric by
// metric, one block of rows per workload, and fails when any metric got
// worse.
func compareFiles(aPath, bPath, benchPath, basePath string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds(benchPath, basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readRecords(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	values := func(rs []record, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(stdout, "%-19s %-24s %-34s %-34s %8s %9s %7s %s\n", "workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "worse by", "wins", "bound", "verdict")
	anyWorse := false
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		tally := map[string][]string{}
		for _, bd := range bounds {
			xa, xb := values(ra, bd.Name), values(rb, bd.Name)
			if len(xa) == 0 && len(xb) == 0 {
				continue // a metric this workload does not report
			}
			v := judge(xa, xb, bd)
			tally[v.label] = append(tally[v.label], bd.Name)
			limit := fmt.Sprintf("%.3g", bd.Bound)
			if bd.Absolute > 0 {
				limit = fmt.Sprintf("+%.3g", bd.Absolute)
			}
			fmt.Fprintf(stdout, "%-19s %-24s %-34s %-34s %8.4f %4d/%-4d %7s %s\n", w.name, bd.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", v.medA, v.q1A, v.q3A, v.nA),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", v.medB, v.q1B, v.q3B, v.nB),
				v.change, v.wins, v.pairs, limit, v.label)
		}
		anyWorse = anyWorse || len(tally["worse"]) > 0
		var parts []string
		for _, label := range []string{"improved", "worse", "unresolved"} {
			if len(tally[label]) > 0 {
				parts = append(parts, label+": "+strings.Join(tally[label], ", "))
			}
		}
		if len(parts) == 0 {
			parts = append(parts, "every metric unchanged")
		}
		fmt.Fprintf(stdout, "%-19s %s\n", w.name, strings.Join(parts, "; "))
	}
	if anyWorse {
		return 1
	}
	return 0
}
