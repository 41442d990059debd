package cylog

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Error-path and concurrency coverage for the batched answer API: staging
// validation (unknown request, missing column, schema mismatch, duplicates),
// commit-time conflicts, single-use enforcement, and -race stress with
// staging concurrent to in-flight runs.

func newWorkflowEngineWithRequests(t *testing.T) (*Engine, []OpenRequest) {
	t.Helper()
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
	return e, reqs
}

// commitAnswer answers one request through a single-item AnswerBatch and
// commits it with RunIncremental. A staging rejection is returned and
// nothing commits.
func commitAnswer(e *Engine, requestID string, values map[string]any) error {
	b := e.NewAnswerBatch()
	if err := b.Answer(requestID, values); err != nil {
		return err
	}
	_, err := e.RunIncremental(b)
	return err
}

// TestAnswerBatchErrorPaths checks that every malformed item is rejected
// individually — unknown request id, missing open column, schema mismatch,
// duplicate answer, non-open/unknown relation, arity mismatch — while the
// valid items of the same batch stage and commit untouched.
func TestAnswerBatchErrorPaths(t *testing.T) {
	e, reqs := newWorkflowEngineWithRequests(t)
	b := e.NewAnswerBatch()

	if err := b.Answer("nope", map[string]any{"text": "x"}); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("unknown request id: %v", err)
	}
	if err := b.Answer(reqs[0].ID, map[string]any{}); err == nil {
		t.Error("missing open column should fail staging")
	}
	if err := b.AnswerFact("sentence", 9, "x"); err == nil {
		t.Error("non-open relation should fail staging")
	}
	if err := b.AnswerFact("missing", 1); err == nil {
		t.Error("unknown relation should fail staging")
	}
	if err := b.AnswerFact("translated", 1); err == nil {
		t.Error("arity mismatch should fail staging")
	}
	if err := b.AnswerFact("checked", 1, "not-a-bool"); err == nil {
		t.Error("schema mismatch should fail staging")
	}
	// Valid answers for both requests, then a duplicate for the first.
	for _, r := range reqs {
		sid, _ := r.Key()["sid"].AsInt()
		if err := b.Answer(r.ID, map[string]any{"text": fmt.Sprintf("T%d", sid)}); err != nil {
			t.Fatalf("valid answer rejected: %v", err)
		}
	}
	if err := b.Answer(reqs[0].ID, map[string]any{"text": "again"}); !errors.Is(err, ErrDuplicateAnswer) {
		t.Errorf("duplicate answer: %v", err)
	}
	if got := b.Len(); got != 2 {
		t.Errorf("staged items = %d, want 2", got)
	}
	errs := b.Errors()
	if len(errs) != 7 {
		t.Fatalf("batch errors = %v, want 7", errs)
	}
	// Indexes count every staging attempt, including the rejected ones.
	wantIdx := []int{0, 1, 2, 3, 4, 5, 8}
	for i, be := range errs {
		if be.Index != wantIdx[i] {
			t.Errorf("errs[%d].Index = %d, want %d", i, be.Index, wantIdx[i])
		}
		if be.Error() == "" || be.Unwrap() == nil {
			t.Errorf("errs[%d] should render and unwrap", i)
		}
	}

	// The rejected items must not poison the rest: committing inserts both
	// valid answers and derives the next stage's requests.
	view, err := e.RunIncremental(b)
	if err != nil {
		t.Fatal(err)
	}
	next := view.All()
	if got := len(e.Facts("translated")); got != 2 {
		t.Errorf("translated = %v", e.Facts("translated"))
	}
	for _, r := range next {
		if r.Relation != "checked" {
			t.Errorf("expected checked requests after commit, got %v", r)
		}
	}
	if len(next) != 2 {
		t.Errorf("next round requests = %v", next)
	}
}

// TestAnswerBatchCommitConflict covers the stage-then-race window: a request
// answered through another path between staging and commit is reported as a
// per-item error at commit, and the batch's other items still apply.
func TestAnswerBatchCommitConflict(t *testing.T) {
	e, reqs := newWorkflowEngineWithRequests(t)
	b := e.NewAnswerBatch()
	for _, r := range reqs {
		if err := b.Answer(r.ID, map[string]any{"text": "batch"}); err != nil {
			t.Fatal(err)
		}
	}
	// Answer the first request through another batch, committed first.
	if err := commitAnswer(e, reqs[0].ID, map[string]any{"text": "direct"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	errs := b.Errors()
	if len(errs) != 1 || !errors.Is(errs[0].Err, ErrUnknownRequest) {
		t.Fatalf("commit conflict errors = %v", errs)
	}
	// The conflict surfaced at commit time, so it must also appear in the
	// commit-scoped view (and classify as a closed request, not an unknown
	// id: the direct answer closed it).
	cerrs := b.CommitErrors()
	if len(cerrs) != 1 || !errors.Is(cerrs[0].Err, ErrRequestClosed) {
		t.Fatalf("CommitErrors = %v", cerrs)
	}
	// The conflicting item was skipped (the direct answer stands), the other
	// item applied.
	texts := map[string]bool{}
	for _, tup := range e.Facts("translated") {
		texts[tup[1].AsString()] = true
	}
	if !texts["direct"] || !texts["batch"] || len(texts) != 2 {
		t.Errorf("translated = %v", e.Facts("translated"))
	}
}

// TestAnswerBatchSingleUse pins the committed-batch contract: a second
// commit and any staging after commit report ErrBatchCommitted.
func TestAnswerBatchSingleUse(t *testing.T) {
	e, reqs := newWorkflowEngineWithRequests(t)
	b := e.NewAnswerBatch()
	if err := b.Answer(reqs[0].ID, map[string]any{"text": "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(b); !errors.Is(err, ErrBatchCommitted) {
		t.Errorf("second commit: %v", err)
	}
	if err := b.Answer(reqs[1].ID, map[string]any{"text": "y"}); !errors.Is(err, ErrBatchCommitted) {
		t.Errorf("staging after commit: %v", err)
	}
	if err := b.AnswerFact("translated", 7, "z"); !errors.Is(err, ErrBatchCommitted) {
		t.Errorf("fact staging after commit: %v", err)
	}
}

// TestAnswerBatchWrongEngine rejects committing a batch into an engine it
// was not staged against (its validation snapshots would be meaningless).
func TestAnswerBatchWrongEngine(t *testing.T) {
	e1, reqs := newWorkflowEngineWithRequests(t)
	e2, err := NewEngine(MustParse(sequentialWorkflowProgram))
	if err != nil {
		t.Fatal(err)
	}
	b := e1.NewAnswerBatch()
	if err := b.Answer(reqs[0].ID, map[string]any{"text": "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.RunIncremental(b); err == nil {
		t.Error("foreign batch should be rejected")
	}
}

// TestAnswerBatchConcurrentStagingRace is the -race workout for the staging
// contract: many goroutines stage answers and whole facts into shared and
// private batches while runs are in flight on another goroutine. Staging
// serializes on the engine lock, so everything must complete without races
// and every request must end up answered exactly once across the batches.
func TestAnswerBatchConcurrentStagingRace(t *testing.T) {
	e, err := NewEngine(MustParse(incrementalProgram))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 64; n++ {
		e.AddFact("node", n)
		if n%2 == 0 {
			e.AddFact("edge", n, n+1)
		}
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 64 {
		t.Fatalf("requests = %d, want 64", len(reqs))
	}

	// One shared batch staged from 4 goroutines, plus a private batch per
	// goroutine for whole facts, while a fifth goroutine keeps running the
	// engine (full Runs are idempotent and hold the same lock staging takes).
	shared := e.NewAnswerBatch()
	var wg sync.WaitGroup
	private := make([]*AnswerBatch, 4)
	for g := 0; g < 4; g++ {
		private[g] = e.NewAnswerBatch()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += 4 {
				n, _ := reqs[i].Key()["n"].AsInt()
				if err := shared.Answer(reqs[i].ID, map[string]any{"tag": fmt.Sprintf("t%d", n)}); err != nil {
					t.Errorf("shared staging: %v", err)
				}
				if err := private[g].AnswerFact("label", int(n), fmt.Sprintf("p%d", n)); err != nil {
					t.Errorf("private staging: %v", err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := e.Run(); err != nil {
				t.Errorf("concurrent run: %v", err)
			}
		}
	}()
	wg.Wait()

	if got := shared.Len(); got != 64 {
		t.Fatalf("shared batch staged %d items, want 64", got)
	}
	if errs := shared.Errors(); len(errs) != 0 {
		t.Fatalf("shared batch errors: %v", errs)
	}
	if _, err := e.RunIncremental(shared); err != nil {
		t.Fatal(err)
	}
	// The private batches duplicate the same keys as whole facts: committing
	// them inserts nothing new (facts dedup, requests already closed).
	for _, p := range private {
		if _, err := e.RunIncremental(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.Facts("labeled")); got != 2*64 {
		t.Fatalf("labeled = %d facts, want %d (batch answer + private fact per node)", got, 2*64)
	}
	if pending := e.PendingRequests(); len(pending) != 0 {
		t.Fatalf("pending after all batches = %v", pending)
	}
}
