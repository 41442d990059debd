package cylog

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func newTranslationEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(MustParse(translationProgram))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineLoadsDeclarationsAndFacts(t *testing.T) {
	e := newTranslationEngine(t)
	if e.Database().Relation("sentence") == nil || e.Database().Relation("translated") == nil {
		t.Error("declared relations should exist")
	}
	if len(e.Facts("sentence")) != 2 {
		t.Errorf("sentence facts = %d", len(e.Facts("sentence")))
	}
	if e.Facts("missing") != nil {
		t.Error("unknown relation should return nil facts")
	}
}

func TestEngineAddFact(t *testing.T) {
	e := newTranslationEngine(t)
	if err := e.AddFact("worker", "alice", "en"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("unknown", 1); err == nil {
		t.Error("adding to an unknown relation should fail")
	}
	if err := e.AddFact("eligible", "alice", 1); err == nil {
		t.Error("adding to a derived relation should fail")
	}
	if err := e.AddFact("sentence", "not-an-int", "x"); err == nil {
		t.Error("schema mismatch should fail")
	}
}

func TestEngineDerivesEligible(t *testing.T) {
	e := newTranslationEngine(t)
	e.AddFact("worker", "alice", "en")
	e.AddFact("worker", "pierre", "fr")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	eligible := e.Facts("eligible")
	if len(eligible) != 2 { // alice × 2 sentences; pierre speaks fr, not eligible
		t.Fatalf("eligible = %v", eligible)
	}
	for _, tup := range eligible {
		if tup[0].AsString() != "alice" {
			t.Errorf("unexpected eligible tuple %v", tup)
		}
	}
}

func TestEngineGeneratesOpenRequests(t *testing.T) {
	e := newTranslationEngine(t)
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// final(S,T) :- translated(S,T), checked(S,true): with no translations
	// yet, the engine should ask for a translation of each sentence... but
	// the rule's first atom binds S from translated, which is empty, so no
	// binding reaches checked. The translated requests are keyed on sid which
	// is unbound at evaluation time (translated is the first body atom), so
	// nothing can be asked yet either.
	if len(reqs) != 0 {
		t.Fatalf("requests with unbound keys should not be generated, got %v", reqs)
	}

	// A driving rule that binds the key from sentence() produces requests.
	e2, err := NewEngine(MustParse(translationProgram + `
rel pendingTranslation(sid: int).
pendingTranslation(S) :- sentence(S, _), translated(S, _).
`))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err = e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("expected 2 translation requests, got %v", reqs)
	}
	r := reqs[0]
	if r.Relation != "translated" || r.Prompt != "Translate this subtitle line" || r.Scheme != "sequential" {
		t.Errorf("request = %+v", r)
	}
	if len(r.KeyColumns) != 1 || r.KeyColumns[0] != "sid" {
		t.Errorf("key columns = %v", r.KeyColumns)
	}
	if len(r.OpenColumns) != 1 || r.OpenColumns[0] != "text" {
		t.Errorf("open columns = %v", r.OpenColumns)
	}
	if !strings.Contains(r.String(), "translated") {
		t.Errorf("String() = %q", r.String())
	}
	if r.Key()["sid"].IsNull() {
		t.Error("Key() should expose the sid value")
	}
}

// sequentialWorkflowProgram drives the full translate → check → final flow.
const sequentialWorkflowProgram = `
rel sentence(sid: int, text: string).
open rel translated(sid: int, text: string) key(sid) asks "Translate" scheme "sequential".
open rel checked(sid: int, ok: bool) key(sid) asks "Check the translation".
rel needTranslation(sid: int).
rel needCheck(sid: int, text: string).
rel final(sid: int, text: string).

sentence(1, "Hello").
sentence(2, "Goodbye").

needTranslation(S) :- sentence(S, _), translated(S, _).
needCheck(S, T) :- translated(S, T), checked(S, _).
final(S, T) :- translated(S, T), checked(S, true).
`

func TestEngineSequentialWorkflowWithAnswers(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: translation requests for both sentences.
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("round 1 requests = %v", reqs)
	}
	b := e.NewAnswerBatch()
	for _, r := range reqs {
		if r.Relation != "translated" {
			t.Fatalf("round 1 should only request translations, got %v", r)
		}
		sid, _ := r.Key()["sid"].AsInt()
		if err := b.Answer(r.ID, map[string]any{"text": fmt.Sprintf("T%d", sid)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	// Round 2: translations exist, so check requests are generated
	// (dynamically generated follow-up tasks — sequential collaboration).
	reqs, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("round 2 requests = %v", reqs)
	}
	b = e.NewAnswerBatch()
	for _, r := range reqs {
		if r.Relation != "checked" {
			t.Fatalf("round 2 should request checks, got %v", r)
		}
		if err := b.Answer(r.ID, map[string]any{"ok": true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	// Round 3: no requests remain and final/2 is derived for both sentences.
	reqs, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 0 {
		t.Fatalf("round 3 requests = %v", reqs)
	}
	final := e.Facts("final")
	if len(final) != 2 {
		t.Fatalf("final = %v", final)
	}
	if final[0][1].AsString() != "T1" || final[1][1].AsString() != "T2" {
		t.Errorf("final tuples = %v", final)
	}
}

func TestEngineAnswerErrors(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	reqs, _ := e.Run()
	if err := commitAnswer(e, "nope", map[string]any{}); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("unknown request: %v", err)
	}
	if err := commitAnswer(e, reqs[0].ID, map[string]any{}); err == nil {
		t.Error("missing open column should fail")
	}
	if err := commitAnswer(e, reqs[0].ID, map[string]any{"text": "ok"}); err != nil {
		t.Errorf("valid answer failed: %v", err)
	}
	// Answering the same request twice fails (it is no longer pending).
	if err := commitAnswer(e, reqs[0].ID, map[string]any{"text": "again"}); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("second answer: %v", err)
	}
}

func TestEngineAnswerFact(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	before := len(e.PendingRequests())
	if before != 2 {
		t.Fatalf("pending = %d", before)
	}
	if err := e.AnswerFact("translated", 1, "Bonjour"); err != nil {
		t.Fatal(err)
	}
	if len(e.PendingRequests()) != 1 {
		t.Error("AnswerFact should clear the matching pending request")
	}
	if err := e.AnswerFact("sentence", 3, "x"); err == nil {
		t.Error("AnswerFact on a non-open relation should fail")
	}
	if err := e.AnswerFact("translated", "bad-sid-type-is-coerced?", "x"); err == nil {
		t.Error("AnswerFact with non-coercible values should fail")
	}
	if err := e.AnswerFact("missing", 1); err == nil {
		t.Error("AnswerFact on unknown relation should fail")
	}
}

func TestEngineRunToFixpointWithOracle(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	stats, err := e.RunToFixpointWithOracle(func(r OpenRequest) (map[string]any, bool) {
		answered++
		switch r.Relation {
		case "translated":
			return map[string]any{"text": "translation"}, true
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
	if len(e.Facts("final")) != 2 {
		t.Errorf("final = %v", e.Facts("final"))
	}
	if stats.DerivedFacts == 0 || stats.Iterations == 0 {
		t.Errorf("stats = %+v", stats)
	}
	// An oracle that refuses to answer terminates without spinning.
	e2, _ := NewEngine(MustParse(sequentialWorkflowProgram))
	if _, err := e2.RunToFixpointWithOracle(func(OpenRequest) (map[string]any, bool) { return nil, false }, 0); err != nil {
		t.Fatal(err)
	}
	if len(e2.PendingRequests()) == 0 {
		t.Error("unanswered requests should remain pending")
	}
}

func TestEngineNegationEvaluation(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel worker(w: string).
rel assigned(w: string).
rel idle(w: string).
worker("a").
worker("b").
assigned("a").
idle(W) :- worker(W), !assigned(W).
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	idle := e.Facts("idle")
	if len(idle) != 1 || idle[0][0].AsString() != "b" {
		t.Errorf("idle = %v", idle)
	}
}

func TestEngineRecursiveReachability(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`))
	if err != nil {
		t.Fatal(err)
	}
	// Chain 1 -> 2 -> ... -> 10 plus a branch.
	for i := 1; i < 10; i++ {
		e.AddFact("edge", i, i+1)
	}
	e.AddFact("edge", 3, 20)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 9+8+...+1 = 45 chain pairs plus 1->20, 2->20, 3->20.
	if got := len(e.Facts("reach")); got != 48 {
		t.Errorf("reach = %d tuples, want 48", got)
	}
}

func TestEngineStratifiedNegationOverDerived(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel task(t: string).
rel done(t: string).
rel completed(t: string).
rel pending(t: string).
task("t1").
task("t2").
done("t1").
completed(T) :- task(T), done(T).
pending(T) :- task(T), !completed(T).
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	pending := e.Facts("pending")
	if len(pending) != 1 || pending[0][0].AsString() != "t2" {
		t.Errorf("pending = %v", pending)
	}
}

func TestEngineComparisonsAndAnonymous(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel score(w: string, s: float).
rel good(w: string).
score("a", 0.9).
score("b", 0.4).
score("c", 0.7).
good(W) :- score(W, S), S >= 0.7.
`))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	good := e.Facts("good")
	if len(good) != 2 {
		t.Errorf("good = %v", good)
	}
}

func TestEngineRequestDedupAcrossRuns(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := e.Run()
	r2, _ := e.Run()
	if len(r1) != len(r2) {
		t.Errorf("re-running without answers should not duplicate requests: %d vs %d", len(r1), len(r2))
	}
	// After answering, the request never reappears.
	if err := commitAnswer(e, r1[0].ID, map[string]any{"text": "x"}); err != nil {
		t.Fatal(err)
	}
	r3, _ := e.Run()
	for _, r := range r3 {
		if r.ID == r1[0].ID {
			t.Error("answered request reappeared")
		}
	}
}

func TestEngineStatsPopulated(t *testing.T) {
	e := newTranslationEngine(t)
	e.AddFact("worker", "alice", "en")
	e.Run()
	s := e.Stats()
	if s.Iterations == 0 || s.RuleEvaluations == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNewEngineRejectsBadProgram(t *testing.T) {
	if _, err := NewEngine(MustParse(`rel a(x: int). b(X) :- a(X).`)); err == nil {
		t.Error("NewEngine should reject semantically invalid programs")
	}
}
