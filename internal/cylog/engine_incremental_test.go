package cylog_test

import (
	"fmt"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
)

// TestEngineIncrementalDifferential is the differential quick-check of the
// batched answer pipeline: across random edge/node sets and random answer
// subsets, every round's facts and pending requests — committed through
// RunIncremental or inserted as facts and derived by Run, on every worker
// count of the matrix — equal the reference's from-scratch fixpoint. Label
// answers shrink unlabeled through its negation, so the same check is the
// retraction differential, and the worker counts of the matrix make it the
// parallel differential too.
func TestEngineIncrementalDifferential(t *testing.T) {
	runDifferential(t, workload{program: cylog.IncrementalProgram, seed: seedGraph, answer: labelAnswer}, 3, 8)
}

// answerAsFact inserts the fact that answers r — its key values plus vals —
// through AnswerFact, which closes r and derives nothing: the full commit
// mode's ingestion, whose consequences the next Run derives.
func answerAsFact(e *cylog.Engine, r cylog.OpenRequest, vals map[string]any) error {
	key := r.Key()
	decl := e.Analysis().Program.DeclarationFor(r.Relation)
	values := make([]any, len(decl.Columns))
	for i, col := range decl.Columns {
		if v, ok := key[col.Name]; ok {
			values[i] = v
		} else {
			values[i] = vals[col.Name]
		}
	}
	return e.AnswerFact(r.Relation, values...)
}

// commitRound answers the requests through one of the two commit paths — a
// batch committed by RunIncremental, or facts inserted by answerAsFact and
// derived by a full Run — and returns the next pending requests.
func commitRound(t *testing.T, e *cylog.Engine, incremental bool, reqs []cylog.OpenRequest, vals map[string]any) []cylog.OpenRequest {
	t.Helper()
	batch := e.NewAnswerBatch()
	for _, r := range reqs {
		var err error
		if incremental {
			err = batch.Answer(r.ID, vals)
		} else {
			err = answerAsFact(e, r, vals)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if incremental {
		_, err = e.RunIncremental(batch)
		reqs = e.PendingRequests()
	} else {
		reqs, err = e.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// checkReference fails the test when the engine differs from the reference.
func checkReference(t *testing.T, e *cylog.Engine) {
	t.Helper()
	if err := reference.Check(e, reference.BaseFacts(e)); err != nil {
		t.Fatal(err)
	}
}

// TestEngineIncrementalSkipsUntouchedStrata pins the reachability skipping:
// answering a label request touches strata 0 (labeled) and 2 (verified) but
// not stratum 1, whose rules read only endpoint positively and reach and
// source under negation — the incremental run must skip it, seed the
// answered tuples, and still derive the reference fixpoint.
func TestEngineIncrementalSkipsUntouchedStrata(t *testing.T) {
	const src = `
rel node(n: int).
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel source(n: int).
rel endpoint(n: int).
open rel label(n: int, tag: string) key(n) asks "Label this node".
rel labeled(n: int, tag: string).
rel lonely(n: int).
rel deadend(n: int).
rel verified(n: int).

reach(X, Y) :- edge(X, Y).
source(X) :- edge(X, _).
endpoint(N) :- node(N), !edge(N, _).
labeled(N, T) :- node(N), label(N, T).
lonely(N) :- endpoint(N), !reach(_, N).
deadend(N) :- endpoint(N), !source(N).
verified(N) :- labeled(N, _), !lonely(N).
`
	build := func(incremental bool) *cylog.Engine {
		e, err := cylog.NewEngine(cylog.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 4; n++ {
			e.AddFact("node", n)
		}
		e.AddFact("edge", 1, 2)
		reqs, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != 4 {
			t.Fatalf("label requests = %v", reqs)
		}
		commitRound(t, e, incremental, reqs[:2], map[string]any{"tag": "ok"})
		checkReference(t, e)
		return e
	}
	is, fs := build(true).Stats(), build(false).Stats()
	if is.SkippedStrata == 0 {
		t.Error("incremental run should skip the untouched stratum")
	}
	if is.SeededDeltas != 2 {
		t.Errorf("SeededDeltas = %d, want 2 (the two answered label facts)", is.SeededDeltas)
	}
	if fs.SkippedStrata != 0 || fs.SeededDeltas != 0 {
		t.Errorf("full path reported incremental stats %+v", fs)
	}
	if is.RuleEvaluations >= fs.RuleEvaluations {
		t.Errorf("incremental should evaluate fewer rules: %d vs full %d",
			is.RuleEvaluations, fs.RuleEvaluations)
	}
	if is.DerivedFacts != fs.DerivedFacts {
		t.Errorf("derived facts differ: incremental %d vs full %d", is.DerivedFacts, fs.DerivedFacts)
	}
}

// TestEngineIncrementalFallbacks covers the full-path fallback: before any
// completed run, RunIncremental evaluates everything.
func TestEngineIncrementalFallbacks(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(cylog.IncrementalProgram))
	if err != nil {
		t.Fatal(err)
	}
	e.AddFact("node", 1)
	e.AddFact("edge", 1, 2)
	view, err := e.RunIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := view.All()
	if s := e.Stats(); s.SkippedStrata != 0 || s.SeededDeltas != 0 {
		t.Errorf("first run should take the full path, stats = %+v", s)
	}
	if len(e.Facts("reach")) != 1 || len(reqs) != 1 {
		t.Fatalf("reach = %v, requests = %v", e.Facts("reach"), reqs)
	}
	checkReference(t, e)
}

// TestEngineIncrementalTracksAllIngestionPaths checks that facts landing via
// AddFact and AnswerFact between fixpoints, and the answers of the committed
// batch, all seed the next incremental run, which must then match the
// reference.
func TestEngineIncrementalTracksAllIngestionPaths(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(cylog.IncrementalProgram))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ {
		e.AddFact("node", n)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("requests = %v", reqs)
	}
	// One answer through each ingestion path, plus a fresh EDB fact.
	b := e.NewAnswerBatch()
	if err := b.Answer(reqs[0].ID, map[string]any{"tag": "a"}); err != nil {
		t.Fatal(err)
	}
	if err := e.AnswerFact("label", 2, "b"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("edge", 3, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.StagedDeltas(); got != 2 {
		t.Errorf("StagedDeltas = %d before the run, want 2 (the batch's answer lands at commit)", got)
	}
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	if got := e.StagedDeltas(); got != 0 {
		t.Errorf("StagedDeltas = %d after the run, want 0", got)
	}
	if s := e.Stats(); s.SeededDeltas != 3 {
		t.Errorf("SeededDeltas = %d, want 3 (batch answer + AnswerFact + AddFact)", s.SeededDeltas)
	}
	if len(e.Facts("labeled")) != 2 {
		t.Errorf("labeled = %v", e.Facts("labeled"))
	}
	// edge(3,1) arrived after the endpoint stratum ran: node 3 loses its
	// endpoint status and reach holds the new edge.
	checkReference(t, e)
	if len(e.Facts("reach")) == 0 {
		t.Error("reach should grow from the AddFact edge")
	}
}

// crowdTCProgram is the oracle-loop work test and benchmark workload: a
// 10-chain transitive closure feeding endpoint detection, human approval of
// endpoints, and a negation stratum over the approvals. Answer rounds touch
// only approve/approved/rejected, so an incremental round evaluates the
// approved rule against the answer deltas and recomputes only the rejected
// stratum, while a full round re-joins the whole closure.
const crowdTCProgram = `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel endpoint(n: int).
open rel approve(n: int, ok: bool) key(n) asks "Approve this endpoint".
rel approved(n: int).
rel rejected(n: int).

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
endpoint(N) :- reach(_, N), !edge(N, _).
approved(N) :- endpoint(N), approve(N, true).
rejected(N) :- endpoint(N), !approved(N).
`

// loadCrowdTC loads `edges` edge facts forming disjoint chains of length 10
// (the benchmark shape: closure linear in the input, one endpoint per chain).
func loadCrowdTC(e *cylog.Engine, edges int) {
	const chain = 10
	for i := 0; i < edges; i++ {
		base := (i / chain) * (chain + 1)
		e.AddFact("edge", base+i%chain, base+i%chain+1)
	}
}

// waveOracle approves up to `wave` requests per crowd round, simulating
// workers who answer in batches. RunToFixpointWithOracle presents each
// round's pending requests in ascending ID order, so an incoming ID at or
// below the previous one marks the start of a new round.
func waveOracle(wave int) func(cylog.OpenRequest) (map[string]any, bool) {
	prevID := ""
	answeredThisRound := 0
	return func(r cylog.OpenRequest) (map[string]any, bool) {
		if prevID == "" || r.ID <= prevID {
			answeredThisRound = 0
		}
		prevID = r.ID
		if answeredThisRound >= wave {
			return nil, false
		}
		answeredThisRound++
		return map[string]any{"ok": true}, true
	}
}

// TestEngineIncrementalOracleLoopDoesLessWork is the acceptance check for the
// batched pipeline: on the transitive-closure crowd workload, committing
// each round through RunIncremental must join at least 3x fewer bindings
// per answered round than answering and re-running the full fixpoint, and
// end in the same facts and pending requests.
func TestEngineIncrementalOracleLoopDoesLessWork(t *testing.T) {
	const edges, wave = 1000, 10 // 100 chains -> 100 endpoints -> 10 answer rounds
	drive := func(incremental bool) (e *cylog.Engine, joined, derived, rounds int) {
		e, err := cylog.NewEngine(cylog.MustParse(crowdTCProgram))
		if err != nil {
			t.Fatal(err)
		}
		e.SetParallelism(1)
		loadCrowdTC(e, edges)
		// Round 1 (the initial full evaluation, identical on both paths) is
		// excluded: the comparison isolates the per-answered-round work.
		reqs, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		for len(reqs) > 0 {
			n := wave
			if n > len(reqs) {
				n = len(reqs)
			}
			reqs = commitRound(t, e, incremental, reqs[:n], map[string]any{"ok": true})
			s := e.Stats()
			joined += s.JoinedBindings
			derived += s.DerivedFacts
			rounds++
		}
		if n := len(e.Facts("approved")); n != edges/10 {
			t.Fatalf("approved = %d, want %d", n, edges/10)
		}
		return e, joined, derived, rounds
	}
	inc, incJoined, incDerived, incRounds := drive(true)
	full, fullJoined, fullDerived, fullRounds := drive(false)
	for _, d := range inc.Analysis().Program.Declarations {
		if a, b := fmt.Sprint(inc.Facts(d.Name)), fmt.Sprint(full.Facts(d.Name)); a != b {
			t.Fatalf("relation %s diverges: incremental %s, full %s", d.Name, a, b)
		}
	}
	if a, b := fmt.Sprint(inc.PendingRequests()), fmt.Sprint(full.PendingRequests()); a != b {
		t.Fatalf("pending requests diverge: incremental %s, full %s", a, b)
	}
	if incRounds != fullRounds || incRounds != edges/10/wave {
		t.Fatalf("answered rounds: incremental %d, full %d, want %d", incRounds, fullRounds, edges/10/wave)
	}
	if incDerived != fullDerived {
		t.Errorf("derived facts differ: %d vs %d", incDerived, fullDerived)
	}
	if incJoined <= 0 || fullJoined < 3*incJoined {
		t.Errorf("incremental answered rounds should join >= 3x fewer bindings: full %d vs incremental %d over %d rounds",
			fullJoined, incJoined, incRounds)
	}
}
