package cylog_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// The counting checks: counting maintenance retracts a tuple when its
// stored derivation count reaches zero and withdraws a request when its
// support does, so the counts must be exact — every derived tuple's count
// equal to its body instantiations over the current facts, and every pending
// request's support equal to the bindings that generate it, as
// reference.Derivations enumerates them.

// checkCounts compares the engine's stored derivation counts and request
// support with reference.Derivations over the engine's base facts, and
// reports the first difference in sorted order.
func checkCounts(e *cylog.Engine) error {
	want, err := reference.Derivations(e.Analysis().Program, reference.BaseFacts(e))
	if err != nil {
		return err
	}
	var diffs []string
	for rel := range e.Analysis().IDB {
		e.Database().Relation(rel).ScanSupport(func(t relstore.Tuple, _ bool, derived int) bool {
			if w := want.Tuples[rel][t.Key()]; derived != w {
				diffs = append(diffs, fmt.Sprintf("%s%s has count %d, reference %d", rel, t, derived, w))
			}
			return true
		})
	}
	got := e.RequestSupport()
	for id, n := range want.Requests {
		if got[id] != n {
			diffs = append(diffs, fmt.Sprintf("request %q has support %d, reference %d", id, got[id], n))
		}
	}
	for id, n := range got {
		if _, ok := want.Requests[id]; !ok {
			diffs = append(diffs, fmt.Sprintf("request %q has support %d, reference none", id, n))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return fmt.Errorf("%d count differences, first: %s", len(diffs), diffs[0])
}

// guardedReachWorkload grows and blocks the recursive guarded closure round
// by round: new edges take the counting path, a new blocked node forces the
// recursive stratum's recompute.
var guardedReachWorkload = workload{
	program: guardedReachProgram,
	seed: func(a, b []uint8, add addFunc) {
		for i := 0; i+1 < len(a); i += 2 {
			add("edge", int(a[i]%8), int(a[i+1]%8))
		}
		for _, n := range b {
			add("blocked", int(n%8))
		}
	},
	between: func(round int, a []uint8, add addFunc) {
		if len(a) == 0 {
			add("edge", round%8, (round+1)%8)
			return
		}
		n := int(a[round%len(a)])
		add("edge", n%8, (n+round)%8)
		if round%2 == 0 {
			add("blocked", (n+round)%8)
		}
	},
}

// growingGraphWorkload labels the three-level negation program while edges
// and nodes keep arriving: a new edge takes a node's endpoint status away,
// which retracts lonely and deadend facts and so unblocks verified ones —
// losses that reach positive and negated atoms alike.
var growingGraphWorkload = workload{
	program: cylog.IncrementalProgram,
	seed:    seedGraph,
	answer:  labelAnswer,
	between: func(round int, a []uint8, add addFunc) {
		add("node", round%8)
		if len(a) > 1 {
			add("edge", int(a[round%len(a)]%8), int(a[(round+1)%len(a)]%8))
		}
	},
}

// negationShapesProgram gathers the negated atom shapes the crowd programs
// do not have, all in non-recursive strata, so counting maintains them:
//
//   - cold: a comparison before two negations, so the flipped keys of each
//     are joined behind the comparison, not at the start of the rule;
//   - lonely: a negation with an unbound variable (!tag(T, _)) over the
//     relation the rule also reads positively;
//   - paused: a negation with no bound variable, whose key is empty — any
//     stop fact blocks every item;
//   - recheck: an in-stratum chain from cold, with an open atom after a
//     negation, so a blocked key withdraws the request it supported.
const negationShapesProgram = `
rel item(n: int).
rel tag(n: int, t: int).
rel stop(n: int).
rel hot(n: int).
open rel vote(n: int, ok: bool) key(n) asks "Vote on this item".
rel approved(n: int).
rel cold(n: int).
rel lonely(n: int).
rel paused(n: int).
rel recheck(n: int).

approved(N) :- item(N), vote(N, true).
cold(N) :- item(N), N > 2, !hot(N), !approved(N).
lonely(N) :- tag(N, T), T != N, !tag(T, _).
paused(N) :- item(N), !stop(_).
recheck(N) :- cold(N), !lonely(N), vote(N, _).
`

// voteAnswer approves even items.
func voteAnswer(r cylog.OpenRequest) map[string]any {
	n, _ := r.KeyValues[0].AsInt()
	return map[string]any{"ok": n%2 == 0}
}

// negationShapesWorkload feeds negationShapesProgram items and tags, then
// round by round more items, tags, hot marks and, once, a stop fact.
var negationShapesWorkload = workload{
	program: negationShapesProgram,
	seed: func(a, b []uint8, add addFunc) {
		for _, n := range a {
			add("item", int(n%8))
		}
		for i := 0; i+1 < len(b); i += 2 {
			add("tag", int(b[i]%8), int(b[i+1]%8))
		}
	},
	answer: voteAnswer,
	between: func(round int, a []uint8, add addFunc) {
		n := round
		if len(a) > 0 {
			n += int(a[round%len(a)])
		}
		add("item", (n+3)%8)
		add("tag", n%8, (n+round)%8)
		add("hot", (n+1)%8)
		if round == 3 {
			add("stop", 0)
		}
	},
}

// layeredReachProgram puts a recursive stratum above counted ones: a cut
// node's live edges are retracted by counting (stratum 1), which changes
// dead (stratum 2) and so reaches the recursive closure (stratum 3) as a lost
// positive input and a changed negated one, forcing its recompute. check
// requests come from the counted flagged rule and from the recursive
// stratum's trusted rule, often for the same node, so a recompute must drop
// only its own stratum's support.
const layeredReachProgram = `
rel node(n: int).
rel edge(a: int, b: int).
rel cut(a: int).
open rel check(n: int, ok: bool) key(n) asks "Check this node".
rel blocked(a: int).
rel live(a: int, b: int).
rel dead(n: int).
rel flagged(n: int).
rel reach(a: int, b: int).
rel trusted(a: int).

blocked(X) :- cut(X).
live(X, Y) :- edge(X, Y), !blocked(X).
dead(N) :- node(N), !live(N, _).
flagged(N) :- dead(N), check(N, _).
reach(X, Y) :- live(X, Y), !dead(Y).
reach(X, Z) :- reach(X, Y), live(Y, Z).
trusted(X) :- reach(X, Y), check(Y, true).
`

// checkAnswer passes even nodes.
func checkAnswer(r cylog.OpenRequest) map[string]any {
	n, _ := r.KeyValues[0].AsInt()
	return map[string]any{"ok": n%2 == 0}
}

// layeredReachWorkload grows the graph and cuts a node every round.
var layeredReachWorkload = workload{
	program: layeredReachProgram,
	seed:    seedGraph,
	answer:  checkAnswer,
	between: func(round int, a []uint8, add addFunc) {
		n := round
		if len(a) > 0 {
			n += int(a[round%len(a)])
		}
		add("cut", n%8)
		add("edge", (n+1)%8, (n+round)%8)
		add("node", (n+2)%8)
	},
}

// TestDerivationCountsMatchReference checks the stored counts and request
// support after every round of the negation programs — approvals that block
// and withdraw reviews, labels over a recursive closure read under negation,
// the recursive guarded closure, seeded open deltas, a three-level negation
// chain whose retractions unblock, the negation shapes above, and a recursive
// stratum above counted ones — on every configuration of the matrix,
// incremental and full.
func TestDerivationCountsMatchReference(t *testing.T) {
	for name, w := range map[string]workload{
		"differential":   differentialWorkload,
		"approveReject":  approveRejectWorkload,
		"guardedReach":   guardedReachWorkload,
		"seededOpen":     seededOpenWorkload,
		"growingGraph":   growingGraphWorkload,
		"negationShapes": negationShapesWorkload,
		"layeredReach":   layeredReachWorkload,
	} {
		w.counts = true
		t.Run(name, func(t *testing.T) { runDifferential(t, w, 4, 8) })
	}
}

// TestDerivationCountedOnceAcrossChangedAtoms pins the old/new rule: a
// derivation whose body uses two tuples added in the same round is found
// through one changed atom only, so h(1) is stored with count 1, not once
// per changed atom.
func TestDerivationCountedOnceAcrossChangedAtoms(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(`
rel a(x: int).
rel b(x: int).
rel h(x: int).
h(X) :- a(X), b(X).
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.AddFact("a", 1)
	e.AddFact("b", 1)
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	if _, derived, _ := e.Database().Relation("h").Support(relstore.NewTuple(1)); derived != 1 {
		t.Errorf("h(1) count = %d after one round adding a(1) and b(1), want 1", derived)
	}
	if err := checkCounts(e); err != nil {
		t.Error(err)
	}
}

// TestFullRunsKeepCountsExact pins that a full Run rebuilds derived relations
// from base support: repeating it with nothing staged leaves every count
// where it was instead of adding one derivation per run.
func TestFullRunsKeepCountsExact(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(`
rel a(x: int).
rel g(x: int).
rel h(x: int).
g(X) :- a(X).
h(X) :- g(X), !a(1).
`))
	if err != nil {
		t.Fatal(err)
	}
	e.AddFact("a", 0)
	for run := 1; run <= 3; run++ {
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for _, rel := range []string{"g", "h"} {
			if _, derived, _ := e.Database().Relation(rel).Support(relstore.NewTuple(0)); derived != 1 {
				t.Errorf("run %d: %s(0) count = %d, want 1", run, rel, derived)
			}
		}
		if err := checkCounts(e); err != nil {
			t.Errorf("run %d: %v", run, err)
		}
	}
}

// TestOneLabelRetractsByCount is the cost contract of counting maintenance on
// the labeling program: one true label re-derives nothing, retracts exactly
// the item's flagged tuple and scans no relation, at 1k and at 10k items.
// Recomputing the flagged stratum re-derived every other item instead.
func TestOneLabelRetractsByCount(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		e := seededProgramEngine(t, labelingProgram, n)
		e.SetParallelism(1)
		s := answerOne(t, e, "label|1", map[string]any{"ok": true})
		if s.ReDerivedTuples != 0 || s.RetractedTuples != 1 || s.FullScans != 0 {
			t.Errorf("%d items: ReDerivedTuples %d, RetractedTuples %d, FullScans %d; want 0, 1, 0",
				n, s.ReDerivedTuples, s.RetractedTuples, s.FullScans)
		}
		if got := len(e.Facts("flagged")); got != n-1 {
			t.Errorf("%d items: %d flagged after one label, want %d", n, got, n-1)
		}
		if n == 1000 {
			checkReference(t, e)
			if err := checkCounts(e); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestRecursiveStratumStillRecomputes pins the one place retraction still
// recomputes: a stratum whose heads support each other through a cycle.
// Blocking a node of the guarded closure re-derives the surviving reach
// tuples, and the result still matches the reference, counts included.
func TestRecursiveStratumStillRecomputes(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(guardedReachProgram))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		base := (i / 8) * 9
		e.AddFact("edge", base+i%8, base+i%8+1)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Analysis().RecursiveStrata[0] {
		t.Fatal("the guarded closure's stratum is not marked recursive")
	}
	e.AddFact("blocked", 4)
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.ReDerivedTuples == 0 || s.RetractedTuples == 0 {
		t.Errorf("blocking node 4 should recompute the closure: ReDerivedTuples %d, RetractedTuples %d", s.ReDerivedTuples, s.RetractedTuples)
	}
	checkReference(t, e)
	if err := checkCounts(e); err != nil {
		t.Error(err)
	}
}

// TestLargeCountingRoundsMatchReference commits rounds large enough that the
// pool splits the counting variants — several hundred lost derivations or
// flipped keys in one variant — and that flipped keys met behind a
// comparison are joined through a hashed frontier, then checks facts,
// requests and counts against the reference at one worker and on a pool.
func TestLargeCountingRoundsMatchReference(t *testing.T) {
	const items = 400
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("approveReject/par%d", par), func(t *testing.T) {
			e, err := cylog.NewEngine(cylog.MustParse(approveRejectProgram))
			if err != nil {
				t.Fatal(err)
			}
			e.SetParallelism(par)
			for n := 0; n < items; n++ {
				e.AddFact("item", n)
			}
			reqs, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			// Approve three items in four in one round: rejected loses 300
			// tuples through flipped keys, and their reviews lose support.
			batch := e.NewAnswerBatch()
			for _, r := range reqs {
				if n, _ := r.KeyValues[0].AsInt(); r.Relation == "approve" && n%4 != 0 {
					batch.Answer(r.ID, map[string]any{"ok": true}) //nolint:errcheck
				}
			}
			if _, err := e.RunIncremental(batch); err != nil {
				t.Fatal(err)
			}
			s := e.Stats()
			if s.RetractedTuples != items*3/4 || s.ReDerivedTuples != 0 {
				t.Errorf("RetractedTuples %d, ReDerivedTuples %d; want %d, 0", s.RetractedTuples, s.ReDerivedTuples, items*3/4)
			}
			if par > 1 && s.ParallelTasks <= s.RuleEvaluations {
				t.Errorf("%d parallel tasks for %d rule evaluations: no counting variant was split", s.ParallelTasks, s.RuleEvaluations)
			}
			checkReference(t, e)
			if err := checkCounts(e); err != nil {
				t.Error(err)
			}
		})
		t.Run(fmt.Sprintf("negationShapes/par%d", par), func(t *testing.T) {
			e, err := cylog.NewEngine(cylog.MustParse(negationShapesProgram))
			if err != nil {
				t.Fatal(err)
			}
			e.SetParallelism(par)
			for n := 0; n < items; n++ {
				e.AddFact("item", n)
				e.AddFact("tag", n, (n+1)%items)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			// Mark most items hot, then cool nothing: cold loses every hot
			// item's tuple through keys joined behind N > 2.
			for n := 0; n < items; n += 2 {
				e.AddFact("hot", n)
			}
			for n := 0; n < items; n += 5 {
				e.AddFact("tag", n, n)
			}
			if _, err := e.RunIncremental(nil); err != nil {
				t.Fatal(err)
			}
			if s := e.Stats(); s.DeltaHashProbes == 0 {
				t.Error("the flipped keys behind the comparison were not joined through a hashed frontier")
			}
			checkReference(t, e)
			if err := checkCounts(e); err != nil {
				t.Error(err)
			}
		})
	}
}
