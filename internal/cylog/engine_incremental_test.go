package cylog

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// incrementalProgram is the multi-stratum differential workload for the
// batched, delta-seeded answer pipeline. Stratum 0 derives reach/source/
// endpoint/labeled, stratum 1 {unlabeled, lonely, deadend} reads only
// node/endpoint positively (labeled, reach and source appear there negated),
// and stratum 2 verifies labels against lonely. Answering label requests
// therefore touches strata 0 and 2 but leaves stratum 1 skippable — the exact
// shape RunIncremental's reachability skipping exists for.
const incrementalProgram = `
rel node(n: int).
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel source(n: int).
rel endpoint(n: int).
open rel label(n: int, tag: string) key(n) asks "Label this node".
rel labeled(n: int, tag: string).
rel unlabeled(n: int).
rel lonely(n: int).
rel deadend(n: int).
rel verified(n: int).

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
source(X) :- edge(X, _).
endpoint(N) :- node(N), !edge(N, _).
labeled(N, T) :- node(N), label(N, T).
unlabeled(N) :- node(N), !labeled(N, _).
lonely(N) :- endpoint(N), !reach(_, N).
deadend(N) :- endpoint(N), !source(N).
verified(N) :- labeled(N, _), !lonely(N).
`

// dbFingerprint renders every relation's sorted facts plus the given pending
// requests into one string, so two evaluation paths can be compared
// byte-for-byte without re-running the engine.
func dbFingerprint(e *Engine, reqs []OpenRequest) string {
	var sb strings.Builder
	for _, name := range e.Database().Names() {
		sb.WriteString(name)
		sb.WriteString(":")
		for _, tup := range e.Facts(name) {
			sb.WriteString(tup.String())
		}
		sb.WriteString("\n")
	}
	for _, r := range reqs {
		sb.WriteString(r.ID + ";" + r.String() + "\n")
	}
	return sb.String()
}

// incrementalConfig is one cell of the incremental differential matrix.
type incrementalConfig struct {
	name        string
	columnar    bool
	parallelism int
	indexing    bool
	incremental bool
}

func incrementalMatrix() []incrementalConfig {
	var out []incrementalConfig
	for _, columnar := range []bool{true, false} {
		for _, par := range []int{1, 4} {
			for _, indexing := range []bool{true, false} {
				for _, inc := range []bool{true, false} {
					out = append(out, incrementalConfig{
						name: fmt.Sprintf("columnar=%v/par%d/indexed=%v/incremental=%v",
							columnar, par, indexing, inc),
						columnar:    columnar,
						parallelism: par,
						indexing:    indexing,
						incremental: inc,
					})
				}
			}
		}
	}
	return out
}

// driveIncrementalRounds runs the crowd loop for a fixed number of rounds —
// full Run first, then batch + RunIncremental — answering a deterministic,
// picks-driven subset of the pending label requests each round. It returns
// the per-round fingerprints and per-round DerivedFacts.
func driveIncrementalRounds(t *testing.T, cfg incrementalConfig, edges, nodes, picks []uint8, rounds int) ([]string, []int) {
	t.Helper()
	e, err := NewEngine(MustParse(incrementalProgram))
	if err != nil {
		t.Fatal(err)
	}
	// This matrix pins the historical insert-only pipeline (PR 4): negation
	// staleness is part of the reference behaviour here. The retraction-on
	// matrix lives in engine_retraction_test.go.
	e.SetRetraction(false)
	e.SetColumnarBindings(cfg.columnar)
	e.SetParallelism(cfg.parallelism)
	e.SetIndexing(cfg.indexing)
	e.SetIncrementalAnswering(cfg.incremental)
	for i := 0; i+1 < len(edges); i += 2 {
		if err := e.AddFact("edge", int(edges[i]%8), int(edges[i+1]%8)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := e.AddFact("node", int(n%8)); err != nil {
			t.Fatal(err)
		}
	}
	var prints []string
	var derived []int
	var batch *AnswerBatch
	for round := 0; round < rounds; round++ {
		var reqs []OpenRequest
		var err error
		if batch == nil {
			reqs, err = e.Run()
		} else {
			reqs, err = e.RunIncremental(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := e.Stats()
		if !cfg.incremental && (s.SkippedStrata != 0 || s.SeededDeltas != 0) {
			t.Fatalf("%s: full path reported incremental stats %+v", cfg.name, s)
		}
		prints = append(prints, dbFingerprint(e, reqs))
		derived = append(derived, s.DerivedFacts)
		if len(reqs) == 0 {
			break
		}
		// Answer a picks-driven subset; duplicate picks hit the batch's
		// duplicate guard, identically on every configuration.
		batch = e.NewAnswerBatch()
		answered := false
		for _, p := range picks {
			r := reqs[int(p)%len(reqs)]
			n, _ := r.Key()["n"].AsInt()
			if err := batch.Answer(r.ID, map[string]any{"tag": fmt.Sprintf("t%d", n)}); err == nil {
				answered = true
			}
		}
		if !answered {
			break
		}
	}
	return prints, derived
}

// TestEngineIncrementalDifferential is the differential quick-check of the
// batched answer pipeline: across random edge/node sets and random answer
// subsets, every round's fixpoint, pending requests and request IDs derived
// by RunIncremental are byte-identical to the full re-run path, across
// {columnar, map} x {par1, par4} x {indexed, scan} — and the per-round
// DerivedFacts counts agree (both paths insert exactly the new consequences).
func TestEngineIncrementalDifferential(t *testing.T) {
	matrix := incrementalMatrix()
	f := func(edges, nodes, picks []uint8) bool {
		if len(nodes) == 0 {
			nodes = []uint8{1}
		}
		if len(picks) == 0 {
			picks = []uint8{0}
		}
		if len(picks) > 6 {
			picks = picks[:6]
		}
		const rounds = 3
		refPrints, refDerived := driveIncrementalRounds(t, matrix[0], edges, nodes, picks, rounds)
		for _, cfg := range matrix[1:] {
			prints, derived := driveIncrementalRounds(t, cfg, edges, nodes, picks, rounds)
			if len(prints) != len(refPrints) {
				t.Logf("%s: %d rounds vs reference %d", cfg.name, len(prints), len(refPrints))
				return false
			}
			for i := range prints {
				if prints[i] != refPrints[i] {
					t.Logf("%s: round %d fingerprint diverges:\n%s\nvs reference:\n%s",
						cfg.name, i, prints[i], refPrints[i])
					return false
				}
				if derived[i] != refDerived[i] {
					t.Logf("%s: round %d derived %d facts vs reference %d",
						cfg.name, i, derived[i], refDerived[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestEngineIncrementalSkipsUntouchedStrata pins the reachability skipping:
// answering a label request touches strata 0 (labeled) and 2 (verified) but
// not stratum 1, whose rules read only node/endpoint positively — the
// incremental run must skip it, seed the answered tuples, and still derive
// the exact fixpoint of the full path.
func TestEngineIncrementalSkipsUntouchedStrata(t *testing.T) {
	build := func(incremental bool) (*Engine, []OpenRequest) {
		e, err := NewEngine(MustParse(incrementalProgram))
		if err != nil {
			t.Fatal(err)
		}
		// Insert-only reference semantics: with retraction on, the stratum
		// negating labeled is recomputed rather than skipped.
		e.SetRetraction(false)
		e.SetIncrementalAnswering(incremental)
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
		batch := e.NewAnswerBatch()
		for _, r := range reqs[:2] {
			if err := batch.Answer(r.ID, map[string]any{"tag": "ok"}); err != nil {
				t.Fatal(err)
			}
		}
		reqs, err = e.RunIncremental(batch)
		if err != nil {
			t.Fatal(err)
		}
		return e, reqs
	}
	inc, incReqs := build(true)
	full, fullReqs := build(false)
	if got, want := dbFingerprint(inc, incReqs), dbFingerprint(full, fullReqs); got != want {
		t.Fatalf("incremental fixpoint diverges from full:\n%s\nvs\n%s", got, want)
	}
	is, fs := inc.Stats(), full.Stats()
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

// TestEngineIncrementalFallbacks covers the full-path fallbacks: before any
// completed run, and in Naive mode, RunIncremental evaluates everything.
func TestEngineIncrementalFallbacks(t *testing.T) {
	e, err := NewEngine(MustParse(incrementalProgram))
	if err != nil {
		t.Fatal(err)
	}
	if !e.IncrementalAnsweringEnabled() {
		t.Error("incremental answering should be enabled by default")
	}
	e.SetIncrementalAnswering(false)
	if e.IncrementalAnsweringEnabled() {
		t.Error("SetIncrementalAnswering(false) not reflected")
	}
	e.SetIncrementalAnswering(true)

	e.AddFact("node", 1)
	e.AddFact("edge", 1, 2)
	// First-ever run through RunIncremental must be a full evaluation.
	reqs, err := e.RunIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.SkippedStrata != 0 || s.SeededDeltas != 0 {
		t.Errorf("first run should take the full path, stats = %+v", s)
	}
	if len(e.Facts("reach")) != 1 || len(reqs) != 1 {
		t.Fatalf("reach = %v, requests = %v", e.Facts("reach"), reqs)
	}

	// Naive mode re-derives everything by definition: no seeding, no skips.
	e.SetMode(Naive)
	if err := e.AddFact("node", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.SkippedStrata != 0 || s.SeededDeltas != 0 {
		t.Errorf("naive mode should take the full path, stats = %+v", s)
	}
}

// TestEngineIncrementalTracksAllIngestionPaths checks that facts landing via
// AddFact, Answer and AnswerFact between fixpoints all seed the next
// incremental run — the resulting fixpoint must match a full re-run twin fed
// the same sequence.
func TestEngineIncrementalTracksAllIngestionPaths(t *testing.T) {
	drive := func(incremental bool) (*Engine, []OpenRequest) {
		e, err := NewEngine(MustParse(incrementalProgram))
		if err != nil {
			t.Fatal(err)
		}
		// Insert-only reference semantics: the test below pins that node 3
		// keeps endpoint status after edge(3,1) lands — exactly the staleness
		// retraction removes.
		e.SetRetraction(false)
		e.SetIncrementalAnswering(incremental)
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
		if err := e.Answer(reqs[0].ID, map[string]any{"tag": "a"}); err != nil {
			t.Fatal(err)
		}
		if err := e.AnswerFact("label", 2, "b"); err != nil {
			t.Fatal(err)
		}
		if err := e.AddFact("edge", 3, 1); err != nil {
			t.Fatal(err)
		}
		if got := e.StagedDeltas(); got != 3 {
			t.Errorf("incremental=%v: StagedDeltas = %d before the run, want 3", incremental, got)
		}
		reqs, err = e.RunIncremental(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.StagedDeltas(); got != 0 {
			t.Errorf("incremental=%v: StagedDeltas = %d after the run, want 0", incremental, got)
		}
		return e, reqs
	}
	inc, incReqs := drive(true)
	full, fullReqs := drive(false)
	if got, want := dbFingerprint(inc, incReqs), dbFingerprint(full, fullReqs); got != want {
		t.Fatalf("fixpoints diverge:\n%s\nvs\n%s", got, want)
	}
	if s := inc.Stats(); s.SeededDeltas != 3 {
		t.Errorf("SeededDeltas = %d, want 3 (Answer + AnswerFact + AddFact)", s.SeededDeltas)
	}
	if len(inc.Facts("labeled")) != 2 {
		t.Errorf("labeled = %v", inc.Facts("labeled"))
	}
	// edge(3,1) arrived after the endpoint stratum ran: node 3 must have lost
	// endpoint status in neither path (insert-only), but reach must now hold
	// the new edge's closure.
	if len(inc.Facts("reach")) == 0 {
		t.Error("reach should grow from the AddFact edge")
	}
}

// crowdTCProgram is the oracle-loop work test and benchmark workload: a
// 10-chain transitive closure feeding endpoint detection, human approval of
// endpoints, and a negation stratum over the approvals. Answer rounds touch
// only approve/approved, so an incremental round evaluates the approved rule
// against the answer deltas and skips the rejected stratum, while a full
// round re-joins the whole closure.
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
func loadCrowdTC(e *Engine, edges int) {
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
func waveOracle(wave int) func(OpenRequest) (map[string]any, bool) {
	prevID := ""
	answeredThisRound := 0
	return func(r OpenRequest) (map[string]any, bool) {
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
// batched pipeline: on the transitive-closure crowd workload, the incremental
// oracle loop must evaluate at least 3x fewer rules per answered round than
// the full re-run loop, skip the untouched stratum every answered round, and
// still derive a byte-identical result.
func TestEngineIncrementalOracleLoopDoesLessWork(t *testing.T) {
	const edges, wave = 1000, 10 // 100 chains -> 100 endpoints -> 10 answer rounds
	drive := func(incremental bool) (e *Engine, evals, skipped, derived, rounds int) {
		e, err := NewEngine(MustParse(crowdTCProgram))
		if err != nil {
			t.Fatal(err)
		}
		// Insert-only reference semantics: with retraction on, the rejected
		// stratum is recomputed per answered round instead of skipped (its
		// negated input approved grows), which is measured separately by
		// BenchmarkOracleLoopRetraction and the retraction tests.
		e.SetRetraction(false)
		e.SetParallelism(1)
		// Pin shards=1: rule-evaluation counts are path-internal (the sharded
		// evaluator builds per-shard variants), and this test compares
		// evaluation work, not fixpoints.
		e.SetShards(1)
		e.SetIncrementalAnswering(incremental)
		loadCrowdTC(e, edges)
		// Round 1 (the initial full evaluation, identical on both paths) is
		// excluded: the comparison isolates the per-answered-round work.
		reqs, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		for len(reqs) > 0 {
			batch := e.NewAnswerBatch()
			n := wave
			if n > len(reqs) {
				n = len(reqs)
			}
			for _, r := range reqs[:n] {
				if err := batch.Answer(r.ID, map[string]any{"ok": true}); err != nil {
					t.Fatal(err)
				}
			}
			if reqs, err = e.RunIncremental(batch); err != nil {
				t.Fatal(err)
			}
			s := e.Stats()
			evals += s.RuleEvaluations
			skipped += s.SkippedStrata
			derived += s.DerivedFacts
			rounds++
		}
		return e, evals, skipped, derived, rounds
	}
	incEngine, incEvals, incSkipped, incDerived, incRounds := drive(true)
	fullEngine, fullEvals, fullSkipped, fullDerived, fullRounds := drive(false)

	if got, want := dbFingerprint(incEngine, incEngine.PendingRequests()),
		dbFingerprint(fullEngine, fullEngine.PendingRequests()); got != want {
		t.Fatal("incremental oracle loop diverges from full re-run")
	}
	if n := len(incEngine.Facts("approved")); n != edges/10 {
		t.Fatalf("approved = %d, want %d", n, edges/10)
	}
	if incRounds != fullRounds || incRounds != edges/10/wave {
		t.Fatalf("answered rounds: incremental %d, full %d, want %d", incRounds, fullRounds, edges/10/wave)
	}
	if incSkipped == 0 {
		t.Error("incremental rounds should skip the rejected stratum")
	}
	if fullSkipped != 0 {
		t.Errorf("full rounds skipped %d strata", fullSkipped)
	}
	if incDerived != fullDerived {
		t.Errorf("derived facts differ: %d vs %d", incDerived, fullDerived)
	}
	if incEvals <= 0 || fullEvals < 3*incEvals {
		t.Errorf("incremental answered rounds should cost >= 3x fewer rule evaluations: full %d vs incremental %d over %d rounds",
			fullEvals, incEvals, incRounds)
	}
}
