package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: a tail estimate resting on fewer is noise.
const minBeyond = 10

// dist is a sorted sample.
type dist []float64

func newDist(xs []float64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// pct returns the nearest-rank q-quantile and whether at least minBeyond
// samples lie beyond it.
func (d dist) pct(q float64) (float64, bool) {
	if len(d) == 0 {
		return 0, false
	}
	k := int(math.Ceil(q*float64(len(d)) - 1e-9)) // 0.99×1000 must rank 990, not 991
	k = min(max(k, 1), len(d))
	return d[k-1], len(d)-k >= minBeyond
}

// median is the middle value, or the mean of the two middle values; 0 for
// no values.
func median(xs []float64) float64 {
	d := newDist(xs)
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

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads match those computed from the same runs elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	d := newDist(xs)
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
