package cylog

import (
	"fmt"
	"testing"
)

// differentialProgram exercises every literal kind across several strata:
// recursion, negation over a derived relation, a comparison, and an open
// relation that generates human-task requests.
const differentialProgram = `
rel node(n: int).
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel source(n: int).
rel big(n: int).
rel unreached(n: int).
open rel label(n: int, tag: string) key(n) asks "Label this node".
rel labeled(n: int, tag: string).

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
source(X) :- edge(X, _).
big(N) :- node(N), N > 3.
unreached(N) :- node(N), !reach(_, N).
labeled(N, T) :- node(N), label(N, T).
`

// TestEngineParallelSplitsLargeDeltas drives an input big enough to split
// delta frontiers and full scans into chunks, and asserts both that splitting
// actually engaged (ParallelTasks exceeds the variant count) and that the
// fixpoint still matches the one-worker engine exactly.
func TestEngineParallelSplitsLargeDeltas(t *testing.T) {
	const src = `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`
	build := func(parallelism int) *Engine {
		e, err := NewEngine(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		e.SetParallelism(parallelism)
		// 200 disjoint chains of length 10: deltas stay in the thousands for
		// several iterations, well above minSplitTuples.
		for i := 0; i < 2000; i++ {
			base := (i / 10) * 11
			e.AddFact("edge", base+i%10, base+i%10+1)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq, par := build(1), build(4)
	sf, pf := seq.Facts("reach"), par.Facts("reach")
	if len(sf) != len(pf) {
		t.Fatalf("reach facts differ: one worker %d, four workers %d", len(sf), len(pf))
	}
	for i := range sf {
		if !sf[i].Equal(pf[i]) {
			t.Fatalf("reach[%d] differs: %v vs %v", i, sf[i], pf[i])
		}
	}
	ss, ps := seq.Stats(), par.Stats()
	if ss.ParallelTasks != 0 {
		t.Errorf("one-worker run dispatched %d parallel tasks", ss.ParallelTasks)
	}
	if ps.ParallelTasks <= ps.RuleEvaluations {
		t.Errorf("parallel run should split large variants: %d tasks for %d evaluations",
			ps.ParallelTasks, ps.RuleEvaluations)
	}
	if ss.DerivedFacts != ps.DerivedFacts {
		t.Errorf("derived facts differ: %d vs %d", ss.DerivedFacts, ps.DerivedFacts)
	}
	// Both worker counts run the same evaluate-then-merge loop, so they take
	// the same iterations.
	if ss.Iterations != ps.Iterations {
		t.Errorf("iterations differ: one worker %d, four workers %d", ss.Iterations, ps.Iterations)
	}
}

// TestEngineParallelRaceStress is the -race workout: many strata with
// overlapping head relations (several rules deriving the same head, negation
// forcing stratum boundaries), evaluated with a large worker pool so rule
// variants and their chunks run concurrently against the shared database
// view.
func TestEngineParallelRaceStress(t *testing.T) {
	src := `
rel item(i: int, grp: int).
rel dropped(i: int).
rel keep(i: int).
rel pair(a: int, b: int).
rel linked(a: int, b: int).
rel lonely(i: int).
keep(I) :- item(I, G), G > 0.
keep(I) :- item(I, _), !dropped(I).
pair(A, B) :- item(A, G), item(B, G), A < B.
linked(A, B) :- pair(A, B).
linked(A, C) :- linked(A, B), pair(B, C).
lonely(I) :- item(I, _), !linked(I, _), !linked(_, I).
`
	e, err := NewEngine(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(8)
	// 40 groups of 8 items each plus 80 singleton groups; pair/linked fan out
	// within groups while lonely needs the singletons.
	id := 0
	for g := 1; g <= 40; g++ {
		for k := 0; k < 8; k++ {
			e.AddFact("item", id, g)
			id++
		}
	}
	for s := 0; s < 80; s++ {
		e.AddFact("item", id, 1000+id)
		id++
	}
	e.AddFact("dropped", 0)
	for round := 0; round < 3; round++ {
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.Facts("lonely")); got != 80 {
		t.Errorf("lonely = %d facts, want 80", got)
	}
	// Within a group of 8, pair holds all ordered (A < B) combinations: 28.
	if got := len(e.Facts("pair")); got != 40*28 {
		t.Errorf("pair = %d facts, want %d", got, 40*28)
	}
	// Every item's group id is positive, so the first keep rule alone keeps
	// all of them; the overlapping negation rule must not change the set.
	if got := len(e.Facts("keep")); got != id {
		t.Errorf("keep = %d facts, want %d", got, id)
	}
}

// TestEngineParallelismConfiguration covers the SetParallelism contract and
// the CYLOG_PARALLELISM default used by CI to force one-worker runs.
func TestEngineParallelismConfiguration(t *testing.T) {
	e, err := NewEngine(MustParse(translationProgram))
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(3)
	if got := e.Parallelism(); got != 3 {
		t.Errorf("Parallelism = %d, want 3", got)
	}
	e.SetParallelism(0)
	if got := e.Parallelism(); got < 1 {
		t.Errorf("Parallelism after reset = %d, want >= 1", got)
	}

	t.Setenv("CYLOG_PARALLELISM", "5")
	e2, err := NewEngine(MustParse(translationProgram))
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Parallelism(); got != 5 {
		t.Errorf("Parallelism with CYLOG_PARALLELISM=5 = %d", got)
	}
	t.Setenv("CYLOG_PARALLELISM", "banana")
	e3, err := NewEngine(MustParse(translationProgram))
	if err != nil {
		t.Fatal(err)
	}
	if got := e3.Parallelism(); got < 1 {
		t.Errorf("Parallelism with invalid env = %d, want >= 1", got)
	}
}

// TestEngineParallelOpenRequestWorkflow re-runs the sequential-collaboration
// workflow end to end on a four-worker engine: request generation, answering
// and re-derivation must behave exactly as on one worker.
func TestEngineParallelOpenRequestWorkflow(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(4)
	answered := 0
	_, err = e.RunToFixpointWithOracle(func(r OpenRequest) (map[string]any, bool) {
		answered++
		switch r.Relation {
		case "translated":
			sid, _ := r.Key()["sid"].AsInt()
			return map[string]any{"text": fmt.Sprintf("T%d", sid)}, true
		case "checked":
			return map[string]any{"ok": true}, true
		}
		return nil, false
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if answered != 4 {
		t.Errorf("oracle answered %d requests, want 4", answered)
	}
	if got := len(e.Facts("final")); got != 2 {
		t.Errorf("final = %d facts, want 2", got)
	}
	if len(e.PendingRequests()) != 0 {
		t.Errorf("pending = %v", e.PendingRequests())
	}
}

// TestBookkeeperSingleWriterGuard pins the single-writer invariant of request
// bookkeeping: stageDelta and admitRequests mutate the pending/staged maps
// with no lock of their own, relying on a single evaluation/ingestion
// goroutine — the merge side of the stratum loop, never a pool worker. A
// second concurrent claim panics instead of silently corrupting request IDs.
func TestBookkeeperSingleWriterGuard(t *testing.T) {
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	release := e.claimBookkeeper()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second claimBookkeeper while claimed should panic")
			}
		}()
		e.claimBookkeeper()
	}()
	release()
	// After release the claim cycle works again.
	e.claimBookkeeper()()
}
