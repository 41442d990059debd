package main

import (
	"fmt"
	"io"
	"slices"
)

// The paired judge compares a change with its parent from `go test -bench
// -count N` outputs of both, taken on the same host — ideally one run of
// each at a time, in alternation, so that both sides see the same drift of a
// shared host. The i-th run of an entry in parent.out is paired with the
// i-th run of the same entry in change.out. For every entry it prints both
// sides' median [q1, q3] of ns/op, B/op and allocs/op, the ratio of the
// medians (change/parent) and the pairs the change won (a lower reading).
// The gate compares the medians with the baseline file's tolerances:
// allocs/op everywhere, ns/op only where the absolute gate checks it too.

// pairedEntry holds one entry's paired runs, parent[i] against change[i].
type pairedEntry struct {
	name           string
	parent, change []measurement
}

// pairRuns groups both outputs' runs by entry name, in the parent's order,
// and pairs them by position. An entry with more runs on one side is cut to
// the other's count; an entry on one side only is left out.
func pairRuns(parent, change []measurement) []pairedEntry {
	byName := func(ms []measurement) (map[string][]measurement, []string) {
		out := make(map[string][]measurement)
		var order []string
		for _, m := range ms {
			if _, seen := out[m.name]; !seen {
				order = append(order, m.name)
			}
			out[m.name] = append(out[m.name], m)
		}
		return out, order
	}
	p, order := byName(parent)
	c, _ := byName(change)
	var entries []pairedEntry
	for _, name := range order {
		n := min(len(p[name]), len(c[name]))
		if n == 0 {
			continue
		}
		entries = append(entries, pairedEntry{name: name, parent: p[name][:n], change: c[name][:n]})
	}
	return entries
}

// pairCheck writes the report of every entry to w and returns the gate's
// failures: a median allocs/op above the parent's by more than allocTol,
// and, when checkWall is set, a median ns/op above it by more than wallTol.
func pairCheck(w io.Writer, entries []pairedEntry, allocTol, wallTol float64, checkWall bool) []string {
	var failures []string
	for _, e := range entries {
		fmt.Fprintf(w, "%s (%d pairs)\n", e.name, len(e.parent))
		ns := reportMetric(w, "ns/op", e, func(m measurement) float64 { return m.nsPerOp })
		if checkWall && ns.change > ns.parent*(1+wallTol) {
			failures = append(failures, fmt.Sprintf("%s: median %.0f ns/op exceeds the parent's %.0f by more than %.0f%%",
				e.name, ns.change, ns.parent, wallTol*100))
		}
		if !e.parent[0].hasAllocs { // run without -benchmem
			continue
		}
		reportMetric(w, "B/op", e, func(m measurement) float64 { return m.bytesPerOp })
		allocs := reportMetric(w, "allocs/op", e, func(m measurement) float64 { return m.allocsPerOp })
		if allocs.change > allocs.parent*(1+allocTol) {
			failures = append(failures, fmt.Sprintf("%s: median %.0f allocs/op exceeds the parent's %.0f by more than %.0f%%",
				e.name, allocs.change, allocs.parent, allocTol*100))
		}
	}
	return failures
}

// medians are both sides' medians of one metric.
type medians struct{ parent, change float64 }

// reportMetric writes one metric's line for an entry and returns its
// medians.
func reportMetric(w io.Writer, unit string, e pairedEntry, get func(measurement) float64) medians {
	p, c := make([]float64, len(e.parent)), make([]float64, len(e.change))
	wins := 0
	for i := range e.parent {
		p[i], c[i] = get(e.parent[i]), get(e.change[i])
		if c[i] < p[i] {
			wins++
		}
	}
	m := medians{median(p), median(c)}
	ratio := 0.0
	if m.parent > 0 {
		ratio = m.change / m.parent
	}
	pq1, pq3 := quartiles(p)
	cq1, cq3 := quartiles(c)
	fmt.Fprintf(w, "  %-9s parent %.0f [%.0f, %.0f]  change %.0f [%.0f, %.0f]  ratio %.3f  wins %d/%d\n",
		unit, m.parent, pq1, pq3, m.change, cq1, cq3, ratio, wins, len(p))
	return m
}

// median is the middle value, or the mean of the two middle values; 0 for
// no values.
func median(xs []float64) float64 {
	d := sorted(xs)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// quartiles returns the first and third quartiles by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), the method the service
// benchmark's -compare reports spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	d := sorted(xs)
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return d[0], d[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
