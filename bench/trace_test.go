package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 40},
		{Start: 10, End: 30},  // overlaps the first: [10, 40] counts once
		{Start: 90, End: 120}, // clipped to the parent: [90, 100]
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, children); got != 60 {
		t.Fatalf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestOverlapsAny(t *testing.T) {
	commits := []span{{Start: 10, End: 20}, {Start: 40, End: 50}}
	for _, tc := range []struct {
		s    span
		want bool
	}{
		{span{Start: 0, End: 10}, false},
		{span{Start: 0, End: 11}, true},
		{span{Start: 19, End: 30}, true},
		{span{Start: 20, End: 40}, false},
		{span{Start: 45, End: 46}, true},
		{span{Start: 50, End: 60}, false},
	} {
		if got := overlapsAny(tc.s, commits); got != tc.want {
			t.Errorf("overlapsAny(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestAnswerStepsReconcile(t *testing.T) {
	origin := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return origin.Add(time.Duration(ms * float64(time.Millisecond))) }
	ns := func(tm time.Time) int64 { return tm.Sub(origin).Nanoseconds() }
	msNs := func(ms float64) int64 { return int64(ms * 1e6) }
	// Due at 0; sent 1 ms late; the feed and the answer took 2 ms of round
	// trips, acknowledged at 3 ms; the round's commit ran from 10 to 15 ms
	// and recorded its fixpoint event at 14.9 ms; the event reached the
	// client at 15.2 ms.
	a := answerRec{t0: at(0), lag: time.Millisecond, rtt: 2 * time.Millisecond, ack: at(3), fixpoint: at(15.2)}
	c := commitRec{start: msNs(10), end: msNs(15), fixedAt: msNs(14.9)}
	total, s := answerSteps(a, c, ns)
	want := step{lag: msNs(1), rtt: msNs(2), wait: msNs(7), commit: msNs(5), fanout: msNs(0.3)}
	if total != msNs(15.2) || s != want {
		t.Fatalf("answerSteps = %d, %+v; want %d, %+v", total, s, msNs(15.2), want)
	}
	// The commit's tail after its fixpoint event is counted twice, so the
	// residual is -0.1 ms: 0.1/15.2 of answer→fixpoint is unexplained.
	residual := float64(total-s.sum()) / 1e6
	if math.Abs(residual+0.1) > 1e-9 {
		t.Fatalf("residual = %g ms, want -0.1", residual)
	}
	got := unexplained([]float64{15.2, 15.2, 30}, []float64{-0.1, -0.1, 5})
	if math.Abs(got-0.1/15.2) > 1e-12 {
		t.Fatalf("unexplained share = %g, want %g", got, 0.1/15.2)
	}
}
