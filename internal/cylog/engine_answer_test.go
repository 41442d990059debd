package cylog

import (
	"errors"
	"fmt"
	"testing"
)

// Error-path coverage for answering open requests beyond the basic cases in
// engine_test.go: type mismatches on answer values, arity mismatches on
// direct facts, and answering requests that were already closed out of band
// by AnswerFact.

func TestEngineAnswerTypeMismatch(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("requests = %v", reqs)
	}
	b := e.NewAnswerBatch()
	for _, r := range reqs {
		if err := b.Answer(r.ID, map[string]any{"text": "ok"}); err != nil {
			t.Fatalf("translation answer: %v", err)
		}
	}

	// Drive the flow to the checked stage: checked.ok is a bool and must
	// reject a value that ParseBool cannot read.
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	reqs = e.PendingRequests()
	var checkReq *OpenRequest
	for i := range reqs {
		if reqs[i].Relation == "checked" {
			checkReq = &reqs[i]
			break
		}
	}
	if checkReq == nil {
		t.Fatalf("no checked request in %v", reqs)
	}
	pendingBefore := len(e.PendingRequests())
	if err := commitAnswer(e, checkReq.ID, map[string]any{"ok": "not-a-bool"}); err == nil {
		t.Error("bool column should reject a non-boolean string")
	}
	if got := len(e.PendingRequests()); got != pendingBefore {
		t.Errorf("failed answer should leave the request pending: %d -> %d", pendingBefore, got)
	}
	// A valid answer for the same request still goes through afterwards.
	if err := commitAnswer(e, checkReq.ID, map[string]any{"ok": true}); err != nil {
		t.Errorf("valid bool answer after failed one: %v", err)
	}
	if got := len(e.PendingRequests()); got != pendingBefore-1 {
		t.Errorf("pending after valid answer = %d, want %d", got, pendingBefore-1)
	}
}

func TestEngineAnswerFactArityMismatch(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	before := len(e.PendingRequests())
	if err := e.AnswerFact("translated", 1); err == nil {
		t.Error("too few values should fail")
	}
	if err := e.AnswerFact("translated", 1, "Bonjour", "extra"); err == nil {
		t.Error("too many values should fail")
	}
	if got := len(e.PendingRequests()); got != before {
		t.Errorf("failed AnswerFact changed pending from %d to %d", before, got)
	}
	if got := len(e.Facts("translated")); got != 0 {
		t.Errorf("failed AnswerFact inserted facts: %v", e.Facts("translated"))
	}
}

func TestEngineAnswerAfterAnswerFactClosedRequest(t *testing.T) {
	e, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("requests = %v", reqs)
	}
	// Close the first request out of band: AnswerFact with a matching key
	// clears it from the pending set.
	sid, _ := reqs[0].Key()["sid"].AsInt()
	if err := e.AnswerFact("translated", sid, fmt.Sprintf("T%d", sid)); err != nil {
		t.Fatal(err)
	}
	// Answering the closed request through the normal path must now report
	// ErrUnknownRequest, not insert a second fact.
	if err := commitAnswer(e, reqs[0].ID, map[string]any{"text": "late"}); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("answer after AnswerFact close: %v", err)
	}
	if got := len(e.Facts("translated")); got != 1 {
		t.Errorf("translated = %v, want exactly the AnswerFact tuple", e.Facts("translated"))
	}
	// Re-running must not re-issue the closed request.
	reqs, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Relation == "translated" {
			key, _ := r.Key()["sid"].AsInt()
			if key == sid {
				t.Errorf("closed request re-issued: %v", r)
			}
		}
	}
}

// TestAnswerFactSubsetKeySweep is the regression test for the shared
// key-matching helper (matchesRequestKey): when an open relation's key
// columns are a strict subset of its columns, AnswerFact must clear exactly
// the pending request whose key values the fact carries — comparing key
// columns only, never the open columns — and leave the other requests
// pending.
func TestAnswerFactSubsetKeySweep(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel item(id: int).
open rel review(id: int, stars: int, note: string) key(id) asks "Review this item".
rel reviewed(id: int).
item(1).
item(2).
item(3).
reviewed(I) :- item(I), review(I, _, _).
`))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("requests = %v", reqs)
	}
	if err := e.AnswerFact("review", 2, 5, "solid"); err != nil {
		t.Fatal(err)
	}
	pending := e.PendingRequests()
	if len(pending) != 2 {
		t.Fatalf("pending after sweep = %v, want items 1 and 3", pending)
	}
	for _, r := range pending {
		if id, _ := r.Key()["id"].AsInt(); id == 2 {
			t.Errorf("request for item 2 should have been swept: %v", r)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Facts("reviewed")); got != 1 {
		t.Errorf("reviewed = %v", e.Facts("reviewed"))
	}
	// A second fact for the same key (different open columns) sweeps nothing
	// further but must not error or resurrect the request.
	if err := e.AnswerFact("review", 2, 1, "changed my mind"); err != nil {
		t.Fatal(err)
	}
	if got := len(e.PendingRequests()); got != 2 {
		t.Errorf("pending after duplicate-key fact = %d, want 2", got)
	}
}

// TestAnswerFactSweepWithoutDeclaredKey covers the sweep's slow path: an open
// relation with no key() clause issues requests keyed on whatever columns the
// generating rule bound, so closing by fact must compare key values against
// every pending request of the relation instead of computing a request id.
func TestAnswerFactSweepWithoutDeclaredKey(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel pair(a: int, b: int).
open rel judge(a: int, b: int, ok: bool) asks "Judge this pair".
rel judged(a: int, b: int).
pair(1, 2).
pair(3, 4).
judged(A, B) :- pair(A, B), judge(A, B, _).
`))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("requests = %v", reqs)
	}
	if len(reqs[0].KeyColumns) != 2 || len(reqs[0].OpenColumns) != 1 {
		t.Fatalf("default-key request shape = %+v", reqs[0])
	}
	if err := e.AnswerFact("judge", 1, 2, true); err != nil {
		t.Fatal(err)
	}
	pending := e.PendingRequests()
	if len(pending) != 1 {
		t.Fatalf("pending after sweep = %v, want only pair (3,4)", pending)
	}
	if a, _ := pending[0].Key()["a"].AsInt(); a != 3 {
		t.Errorf("remaining request = %v, want pair (3,4)", pending[0])
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Facts("judged")); got != 1 {
		t.Errorf("judged = %v", e.Facts("judged"))
	}
}

// TestEngineDuplicateKeyColumnRequests covers an open declaration whose
// key() repeats a column: keyExists must collapse the duplicate positions
// (not silently treat every fact as absent), so a fact loaded for the key
// suppresses the request while an unanswered key still asks.
func TestEngineDuplicateKeyColumnRequests(t *testing.T) {
	e, err := NewEngine(MustParse(`
rel item(id: int).
open rel rating(id: int, score: int) key(id, id) asks "Rate this item".
rel rated(id: int, score: int).
item(1).
item(2).
rated(I, S) :- item(I), rating(I, S).
`))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AnswerFact("rating", 1, 5); err != nil {
		t.Fatal(err)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("requests = %v, want only the unanswered item 2", reqs)
	}
	if id, _ := reqs[0].KeyValues[0].AsInt(); id != 2 {
		t.Errorf("request key = %v, want 2", reqs[0].KeyValues)
	}
	if got := len(e.Facts("rated")); got != 1 {
		t.Errorf("rated = %v", e.Facts("rated"))
	}
}
