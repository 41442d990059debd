package main

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if percentile(xs, 0) != 10 || percentile(xs, 1) != 40 {
		t.Error("extreme percentiles wrong")
	}
	if p := percentile(xs, 0.5); p != 25 {
		t.Errorf("median = %v, want 25", p)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	// percentile must not mutate the input.
	orig := []float64{3, 1, 2}
	percentile(orig, 0.5)
	if orig[0] != 3 || orig[1] != 1 {
		t.Error("input was sorted in place")
	}
}

func TestPercentilePropertyWithinBounds(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		lo, hi := math.Inf(1), math.Inf(-1)
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		v := percentile(xs, float64(pRaw)/255)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
