package cylog

import (
	"fmt"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// testCatalog builds a planCatalog from static cardinalities and an open set.
func testCatalog(card map[string]int, open ...string) planCatalog {
	openSet := make(map[string]bool, len(open))
	for _, o := range open {
		openSet[o] = true
	}
	return planCatalog{
		isOpen: func(p string) bool { return openSet[p] },
		card:   func(p string) int { return card[p] },
	}
}

func planOrder(steps []planStep) []int {
	out := make([]int, len(steps))
	for i, s := range steps {
		out[i] = s.bodyIndex
	}
	return out
}

func TestPlannerBoundnessDrivenOrder(t *testing.T) {
	// big is huge but its first column is bound by small, so after small is
	// joined the planner should prefer probing big over scanning mid.
	p := MustParse(`
rel small(x: int).
rel mid(y: int, z: int).
rel big(x: int, y: int).
rel out(x: int, z: int).
out(X, Z) :- mid(Y, Z), big(X, Y), small(X).
`)
	r := p.Rules[0]
	cat := testCatalog(map[string]int{"small": 10, "mid": 500, "big": 100000})
	steps := planRule(r, -1, cat)
	// Greedy: nothing bound yet -> smallest relation first (small, card 10).
	// That binds X -> big has one bound column, mid none -> big next, then mid.
	want := []int{2, 1, 0}
	got := planOrder(steps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan order = %v, want %v", got, want)
		}
	}
	// big is reached with X bound: probe column 0.
	if len(steps[1].probeCols) != 1 || steps[1].probeCols[0] != 0 {
		t.Errorf("big probeCols = %v, want [0]", steps[1].probeCols)
	}
	// mid is reached with Y bound (from big): probe column 0.
	if len(steps[2].probeCols) != 1 || steps[2].probeCols[0] != 0 {
		t.Errorf("mid probeCols = %v, want [0]", steps[2].probeCols)
	}
}

func TestPlannerConstantsCountAsBound(t *testing.T) {
	p := MustParse(`
rel worker(w: string, lang: string).
rel sentence(s: int, text: string).
rel eligible(w: string, s: int).
eligible(W, S) :- sentence(S, _), worker(W, "en").
`)
	r := p.Rules[0]
	// worker is larger, but its constant-bound column makes it probeable, so
	// it is scheduled first.
	cat := testCatalog(map[string]int{"worker": 1000, "sentence": 100})
	steps := planRule(r, -1, cat)
	if got := planOrder(steps); got[0] != 1 || got[1] != 0 {
		t.Fatalf("plan order = %v, want [1 0]", got)
	}
	if len(steps[0].probeCols) != 1 || steps[0].probeCols[0] != 1 {
		t.Errorf("worker probeCols = %v, want [1]", steps[0].probeCols)
	}
}

func TestPlannerIsStable(t *testing.T) {
	p := MustParse(`
rel a(x: int).
rel b(x: int).
rel c(x: int).
rel out(x: int).
out(X) :- a(X), b(X), c(X).
`)
	r := p.Rules[0]
	// Equal cardinalities: ties resolve by source position, and repeated
	// planning yields the identical order.
	cat := testCatalog(map[string]int{"a": 7, "b": 7, "c": 7})
	first := planOrder(planRule(r, -1, cat))
	want := []int{0, 1, 2}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("tie-broken order = %v, want %v", first, want)
		}
	}
	for i := 0; i < 10; i++ {
		again := planOrder(planRule(r, -1, cat))
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("plan not stable: %v vs %v", again, first)
			}
		}
	}
}

func TestPlannerDeltaAtomFirst(t *testing.T) {
	p := MustParse(`
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`)
	r := p.Rules[0]
	// Even though edge is (claimed) far smaller than reach, the delta-
	// restricted atom leads its run: the delta frontier is the real input.
	cat := testCatalog(map[string]int{"reach": 100000, "edge": 10})
	steps := planRule(r, 0, cat)
	if got := planOrder(steps); got[0] != 0 || got[1] != 1 {
		t.Fatalf("delta plan order = %v, want [0 1]", got)
	}
	// edge is then probed on its first column (Y bound by the delta atom).
	if len(steps[1].probeCols) != 1 || steps[1].probeCols[0] != 0 {
		t.Errorf("edge probeCols = %v, want [0]", steps[1].probeCols)
	}
}

func TestPlannerBarriersStayInSourceOrder(t *testing.T) {
	p := MustParse(`
rel sentence(s: int).
rel done(s: int).
open rel translated(s: int, text: string) key(s) asks "translate".
rel pending(s: int).
pending(S) :- sentence(S), translated(S, _), !done(S), S > 0.
`)
	r := p.Rules[0]
	cat := testCatalog(map[string]int{"sentence": 50, "done": 50, "translated": 0}, "translated")
	steps := planRule(r, -1, cat)
	got := planOrder(steps)
	want := []int{0, 1, 2, 3} // open atom, negation and comparison are pinned
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("barrier order = %v, want %v", got, want)
		}
	}
	// The negated atom still gets probe columns from the bound set.
	if len(steps[2].probeCols) != 1 || steps[2].probeCols[0] != 0 {
		t.Errorf("negated done probeCols = %v, want [0]", steps[2].probeCols)
	}
}

func TestEngineIndexHitsCounted(t *testing.T) {
	src := `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`
	e, err := NewEngine(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	// Enough edges to clear the auto-index threshold.
	for i := 0; i < 4*autoIndexMinRows; i++ {
		e.AddFact("edge", i, i+1)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.IndexProbes == 0 || s.IndexHits == 0 {
		t.Errorf("planner did not engage: stats = %+v", s)
	}
	if s.IndexHits > s.IndexProbes {
		t.Errorf("hits (%d) cannot exceed probes (%d)", s.IndexHits, s.IndexProbes)
	}
	// The recurring bound join key on edge(a) earned an index.
	if edge := e.Database().Relation("edge"); !edge.HasIndexAt([]int{0}) {
		t.Errorf("edge should have an auto-created index on a; has %v", indexedPositions(edge))
	}

}

func TestEngineSmallRelationsAreNotIndexed(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < autoIndexMinRows/2; i++ {
		e.AddFact("edge", i, i+1)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := indexedPositions(e.Database().Relation("edge")); len(got) != 0 {
		t.Errorf("tiny relation should not be auto-indexed: %v", got)
	}
}

// indexedPositions lists the position sets of a two-column relation that
// carry an index.
func indexedPositions(r *relstore.Relation) [][]int {
	var out [][]int
	for _, p := range [][]int{{0}, {1}, {0, 1}} {
		if r.HasIndexAt(p) {
			out = append(out, p)
		}
	}
	return out
}

// TestPlannerSeededDeltaSelection pins delta-variant planning for seeded
// relations (incremental runs restrict atoms over answered open relations
// and freshly added EDB facts, not just in-stratum recursion): a seeded
// closed atom leads its run regardless of boundness or cardinality, and a
// seeded *open* atom leads the whole rule, with the closed atoms before it
// following as probes on its bindings.
func TestPlannerSeededDeltaSelection(t *testing.T) {
	p := MustParse(`
rel big(a: int, b: int).
rel small(b: int).
open rel vote(a: int, ok: bool) key(a) asks "Vote".
rel out(a: int).
out(A) :- big(A, B), small(B), vote(A, true).
`)
	r := p.Rules[0]
	cat := testCatalog(map[string]int{"big": 100000, "small": 10}, "vote")

	// Unrestricted pass: small (card 10) before big, vote pinned last.
	if got := planOrder(planRule(r, -1, cat)); got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("unrestricted plan order = %v, want [1 0 2]", got)
	}

	// Seeded on big (a closed EDB atom): the delta leads its run even though
	// small is smaller and equally unbound.
	steps := planRule(r, 0, cat)
	if got := planOrder(steps); got[0] != 0 || got[2] != 2 {
		t.Fatalf("seeded-EDB plan order = %v, want big first and vote pinned", got)
	}

	// Seeded on vote (an open atom): vote leads, big follows as a probe on
	// the A it binds, and small as a probe on the B big binds.
	steps = planRule(r, 2, cat)
	if got := planOrder(steps); fmt.Sprint(got) != "[2 0 1]" {
		t.Fatalf("seeded-open plan order = %v, want [2 0 1]", got)
	}
	if len(steps[0].probeCols) != 1 || steps[0].probeCols[0] != 1 {
		t.Errorf("vote probeCols = %v, want [1] (the constant)", steps[0].probeCols)
	}
	for _, i := range []int{1, 2} {
		if fmt.Sprint(steps[i].probeCols) != "[0]" {
			t.Errorf("step %d (%s) probeCols = %v, want [0]", i, steps[i].lit, steps[i].probeCols)
		}
	}
}

// TestPlannerSeededOpenDeltaStopsAtBarriers pins how far a seeded open delta
// atom is hoisted: ahead of every positive atom before it, closed or open,
// but never past a negation or comparison — those filter on what is bound at
// their written position, so the delta atom stays behind them and only the
// positive atoms between the barrier and the delta atom are overtaken.
func TestPlannerSeededOpenDeltaStopsAtBarriers(t *testing.T) {
	p := MustParse(`
rel a(x: int).
rel b(x: int).
rel c(x: int, y: int).
open rel o1(x: int, y: int) key(x) asks "first".
open rel o2(y: int, z: int) key(y) asks "second".
rel out(x: int).
out(X) :- a(X), o1(X, Y), o2(Y, Z).
out(X) :- a(X), !b(X), c(X, Y), o2(Y, _).
out(X) :- a(X), X > 3, c(X, Y), o2(Y, _).
out(X) :- a(X), c(X, Y), !b(Y), o2(Y, _).
`)
	cat := testCatalog(map[string]int{"a": 100, "b": 100, "c": 100}, "o1", "o2")
	cases := []struct {
		rule, delta int
		want        string
	}{
		// No barrier: the seeded o2 overtakes the closed a and the open o1,
		// which then keep their own order.
		{0, 2, "[2 0 1]"},
		// Seeded o1: it leads, o2 stays after it in source order.
		{0, 1, "[1 0 2]"},
		// A negation before the delta atom pins it behind the negation; only
		// c, between the barrier and o2, is overtaken.
		{1, 3, "[0 1 3 2]"},
		// A comparison is the same kind of barrier.
		{2, 3, "[0 1 3 2]"},
		// Barrier immediately before the delta atom: source order.
		{3, 3, "[0 1 2 3]"},
	}
	for _, tc := range cases {
		got := fmt.Sprint(planOrder(planRule(p.Rules[tc.rule], tc.delta, cat)))
		if got != tc.want {
			t.Errorf("rule %d seeded on body %d: plan order = %s, want %s", tc.rule, tc.delta, got, tc.want)
		}
	}
}
