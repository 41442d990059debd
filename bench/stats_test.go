package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 1000, q: 0.99, want: 990, ok: true},
		{n: 999, q: 0.99, want: 990, ok: false},
		{n: 20, q: 0.50, want: 10, ok: true},
		{n: 19, q: 0.50, want: 10, ok: false},
		{n: 100, q: 0.90, want: 90, ok: true},
		{n: 99, q: 0.90, want: 90, ok: false},
		{n: 0, q: 0.50, want: 0, ok: false},
	} {
		got, ok := newDist(seq(tc.n)).pct(tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%g of %d samples = %g, supported %v; want %g, %v", tc.q*100, tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// The expected quartiles and medians come from Python 3.11's
// statistics.quantiles(data, n=4) and statistics.median(data).
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, q1: 2.75, med: 5.5, q3: 8.25},
		{data: []float64{3.1, 0.4, 2.2, 9.7, 5.0}, q1: 1.3, med: 3.1, q3: 7.35},
		{data: []float64{7, 1}, q1: -0.5, med: 4, q3: 8.5},
		{data: []float64{5.5, 1.25, 3.0, 8.75, 2.5, 6.0, 4.25}, q1: 2.5, med: 4.25, q3: 6.0},
	} {
		q1, q3 := quartiles(tc.data)
		med := median(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 || med != tc.med {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.data, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}
