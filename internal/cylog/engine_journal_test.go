package cylog

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Ingestion-journal coverage: recording across every ingestion path, trim
// semantics, and replay equivalence — a fresh engine fed the journal reaches
// the same fixpoint and pending set as the engine that lived through the
// ingestion.

func TestJournalOffByDefault(t *testing.T) {
	e, reqs := newWorkflowEngineWithRequests(t)
	if err := e.AddFact("sentence", 3, "Hi"); err != nil {
		t.Fatal(err)
	}
	if err := commitAnswer(e, reqs[0].ID, map[string]any{"text": "T"}); err != nil {
		t.Fatal(err)
	}
	if ops := e.Journal(); len(ops) != 0 {
		t.Fatalf("journal recorded %d ops with journaling off", len(ops))
	}
}

func TestJournalRecordsEveryIngestionPath(t *testing.T) {
	e, reqs := newWorkflowEngineWithRequests(t)
	e.SetJournaling(true)

	if err := e.AddFact("sentence", 3, "Hi"); err != nil {
		t.Fatal(err)
	}
	if err := commitAnswer(e, reqs[0].ID, map[string]any{"text": "T1"}); err != nil {
		t.Fatal(err)
	}
	if err := e.AnswerFact("checked", 1, true); err != nil {
		t.Fatal(err)
	}
	b := e.NewAnswerBatch()
	if err := b.Answer(reqs[1].ID, map[string]any{"text": "T2"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AnswerFact("checked", 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}

	ops := e.Journal()
	want := []struct {
		kind      OpKind
		relation  string
		requestID string
	}{
		{OpAddFact, "sentence", ""},
		{OpAnswer, "translated", reqs[0].ID},
		{OpAnswerFact, "checked", ""},
		{OpAnswer, "translated", reqs[1].ID},
		{OpAnswerFact, "checked", ""},
	}
	if len(ops) != len(want) {
		t.Fatalf("journal has %d ops, want %d: %v", len(ops), len(want), ops)
	}
	for i, w := range want {
		if ops[i].Kind != w.kind || ops[i].Relation != w.relation || ops[i].RequestID != w.requestID {
			t.Errorf("op %d = {%s %s %q}, want {%s %s %q}",
				i, ops[i].Kind, ops[i].Relation, ops[i].RequestID, w.kind, w.relation, w.requestID)
		}
	}
	e.TrimJournal(len(ops))
	if again := e.Journal(); len(again) != 0 {
		t.Fatalf("journal after trimming every op holds %d ops, want 0", len(again))
	}
}

// TestTrimJournalKeepsLaterOps trims a journal read before more ops were
// recorded: only the read prefix goes, and the slice read stays as it was.
func TestTrimJournalKeepsLaterOps(t *testing.T) {
	e, _ := newWorkflowEngineWithRequests(t)
	e.SetJournaling(true)
	if err := e.AddFact("sentence", 3, "Hi"); err != nil {
		t.Fatal(err)
	}
	read := e.Journal()
	if err := e.AddFact("sentence", 4, "Bye"); err != nil {
		t.Fatal(err)
	}
	e.TrimJournal(len(read))
	if len(read) != 1 || read[0].Tuple[0].String() != "3" {
		t.Fatalf("journal read before the trim = %v, want sentence 3 alone", read)
	}
	if left := e.Journal(); len(left) != 1 || left[0].Tuple[0].String() != "4" {
		t.Fatalf("journal after the trim = %v, want sentence 4 alone", left)
	}
}

func TestJournalSkipsDuplicatesAndDisable(t *testing.T) {
	e, _ := newWorkflowEngineWithRequests(t)
	e.SetJournaling(true)
	// sentence(1, "Hello") is a program fact: re-adding inserts nothing and
	// must not be journaled.
	if err := e.AddFact("sentence", 1, "Hello"); err != nil {
		t.Fatal(err)
	}
	if ops := e.Journal(); len(ops) != 0 {
		t.Fatalf("duplicate insert journaled: %v", ops)
	}
	if err := e.AddFact("sentence", 4, "New"); err != nil {
		t.Fatal(err)
	}
	e.SetJournaling(false)
	if ops := e.Journal(); len(ops) != 0 {
		t.Fatalf("SetJournaling(false) should clear pending ops, got %v", ops)
	}
}

func TestJournalReplayEquivalence(t *testing.T) {
	src := `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
open rel approve(n: int, ok: bool) key(n) asks "Approve".
rel approved(n: int).
rel rejected(n: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
approved(N) :- reach(_, N), approve(N, true).
rejected(N) :- reach(_, N), !approved(N).
`
	live, err := NewEngine(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	live.SetJournaling(true)
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 4}} {
		if err := live.AddFact("edge", e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	reqs, err := live.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Answer some requests (alternating), leave the rest pending.
	b := live.NewAnswerBatch()
	for i, r := range reqs {
		if i%2 == 1 {
			continue
		}
		n, _ := r.Key()["n"].AsInt()
		if err := b.Answer(r.ID, map[string]any{"ok": n%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	liveView, err := live.RunIncremental(b)
	if err != nil {
		t.Fatal(err)
	}
	liveReqs := liveView.All()
	ops := live.Journal()
	if len(ops) == 0 {
		t.Fatal("no ops journaled")
	}

	// A fresh engine fed the journal must land on the same fixpoint and the
	// same pending request ids.
	recovered, err := NewEngine(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := recovered.ReplayOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(ops) {
		t.Fatalf("replay applied %d of %d ops", applied, len(ops))
	}
	recReqs, err := recovered.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dbFingerprint(recovered, recReqs), dbFingerprint(live, liveReqs); got != want {
		t.Fatalf("replayed fingerprint differs:\n got %s\nwant %s", got, want)
	}

	// Replaying the same ops again is a no-op: nothing applied, fixpoint and
	// pending set unchanged.
	applied, err = recovered.ReplayOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("duplicate replay applied %d ops, want 0", applied)
	}
	recView, err := recovered.RunIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	recReqs = recView.All()
	if got, want := dbFingerprint(recovered, recReqs), dbFingerprint(live, liveReqs); got != want {
		t.Fatalf("after duplicate replay fingerprint differs:\n got %s\nwant %s", got, want)
	}
}

func TestJournalReplayClosesPendingRequests(t *testing.T) {
	// Replaying an answer onto a live engine that regenerated the request
	// must close it, like the original ingestion did.
	e, reqs := newWorkflowEngineWithRequests(t)
	decl := e.Analysis().Program.DeclarationFor("translated")
	tuple, err := decl.Schema().Coerce(relstore.NewTuple(1, "T1"))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := e.ReplayOps([]FactOp{{Kind: OpAnswer, RequestID: reqs[0].ID, Relation: "translated", Tuple: tuple}})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	for _, r := range e.PendingRequests() {
		if r.ID == reqs[0].ID {
			t.Fatal("replayed answer left its request pending")
		}
	}
}

func TestJournalReplayErrors(t *testing.T) {
	e, _ := newWorkflowEngineWithRequests(t)
	good, err := e.Analysis().Program.DeclarationFor("translated").Schema().Coerce(relstore.NewTuple(9, "ok"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		op   FactOp
		want string
	}{
		{"unknown relation", FactOp{Kind: OpAddFact, Relation: "missing", Tuple: relstore.NewTuple(1)}, "not declared"},
		{"add to IDB", FactOp{Kind: OpAddFact, Relation: "needTranslation", Tuple: relstore.NewTuple(1)}, "derived by rules"},
		{"answer to non-open", FactOp{Kind: OpAnswer, Relation: "sentence", Tuple: relstore.NewTuple(9, "x")}, "not an open relation"},
		{"unknown kind", FactOp{Kind: OpKind(42), Relation: "sentence", Tuple: relstore.NewTuple(9, "x")}, "unknown kind"},
		{"schema mismatch", FactOp{Kind: OpAnswerFact, Relation: "translated", Tuple: relstore.NewTuple("not-an-int")}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Prefix with a valid op to check the partial-apply count.
			applied, err := e.ReplayOps([]FactOp{{Kind: OpAnswerFact, Relation: "translated", Tuple: good}, tc.op})
			if err == nil {
				t.Fatal("want error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if applied > 1 {
				t.Fatalf("applied = %d after failing op", applied)
			}
		})
	}
	if errors.Is(fmt.Errorf("wrap: %w", ErrUnknownRequest), ErrRequestClosed) {
		t.Fatal("sanity: ErrUnknownRequest must not match ErrRequestClosed")
	}
}

// dbFingerprint renders every relation's sorted facts plus the given pending
// requests into one string, so two engines can be compared byte for byte.
func dbFingerprint(e *Engine, reqs []OpenRequest) string {
	var sb strings.Builder
	for _, name := range e.Database().Names() {
		sb.WriteString(name + ":")
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
