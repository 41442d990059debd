package cylog

import (
	"errors"
	"fmt"
	"sync"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Batched answer ingestion
//
// The crowd loop is round-based: the platform collects a wave of worker
// answers, then re-derives consequences and the next wave of open requests.
// AnswerBatch is the ingestion half of that loop: answers are validated and
// staged against the engine without touching shared evaluation state — the
// tuples are built and coerced, but nothing is inserted and no request is
// closed — so any number of goroutines can stage while a run is in flight
// (staging serializes on the engine lock, blocking only for the validation
// lookup). Committing happens atomically inside RunIncremental, which then
// seeds the fixpoint's delta frontiers directly from the batch's newly
// inserted tuples. Every rejected item is reported individually
// (BatchItemError) and never poisons the rest of the batch.

// ErrBatchCommitted is returned when staging into, or re-committing, an
// AnswerBatch that RunIncremental already applied.
var ErrBatchCommitted = errors.New("cylog: answer batch already committed")

// ErrDuplicateAnswer is returned when a batch stages a second answer for a
// request it already holds an answer for.
var ErrDuplicateAnswer = errors.New("cylog: request already answered in this batch")

// BatchItemError records the rejection of one AnswerBatch item: Index is the
// item's position in staging order (counting rejected items), Err the reason.
type BatchItemError struct {
	Index int
	Err   error
}

// Error implements error.
func (e BatchItemError) Error() string {
	return fmt.Sprintf("cylog: batch item %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e BatchItemError) Unwrap() error { return e.Err }

// batchItem is one validated, staged answer: the coerced tuple to insert,
// plus the request it answers (empty requestID for the whole-fact form).
type batchItem struct {
	index     int
	requestID string
	relation  string
	tuple     relstore.Tuple
}

// AnswerBatch collects validated worker answers for one ingestion round. Use
// Answer for a reply to a specific open request — the engine's one way to
// answer a request by its id — and AnswerFact for a whole fact (a team result
// not tied to one request); both validate eagerly and report per-item errors. Pass the batch to Engine.RunIncremental to insert
// every staged fact, close the answered requests, and derive the
// consequences. A batch is single-use: once committed it rejects further
// staging and re-commits with ErrBatchCommitted.
//
// AnswerBatch is safe for concurrent use; staging while a run is in flight
// serializes on the engine lock (stagers block until the run completes).
type AnswerBatch struct {
	engine *Engine

	mu    sync.Mutex
	next  int // staging attempts so far; indexes items and errors
	items []batchItem
	errs  []BatchItemError
	// commitErrs is the subset of errs recorded while the batch committed
	// (requests closed between staging and commit). Kept separately so
	// callers reporting commit outcomes do not have to guess which tail of
	// Errors() is new — staging can race with the commit, making index
	// arithmetic on Errors() unreliable.
	commitErrs []BatchItemError
	claimed    map[string]bool // request ids already answered by this batch
	committed  bool
}

// NewAnswerBatch returns an empty batch staged against the engine.
func (e *Engine) NewAnswerBatch() *AnswerBatch {
	return &AnswerBatch{engine: e, claimed: make(map[string]bool)}
}

// Answer stages a worker's answer for a pending open request: the fact formed
// by the request's key values plus the given open-column values. The answer
// is validated now (the request must be pending and not already answered in
// this batch; the values must cover the open columns and match the declared
// schema) but inserted only when the batch commits. The returned error is
// also recorded in Errors.
func (b *AnswerBatch) Answer(requestID string, openValues map[string]any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := b.next
	b.next++
	if err := b.stageAnswer(idx, requestID, openValues); err != nil {
		b.errs = append(b.errs, BatchItemError{Index: idx, Err: err})
		return err
	}
	return nil
}

func (b *AnswerBatch) stageAnswer(idx int, requestID string, openValues map[string]any) error {
	if b.committed {
		return ErrBatchCommitted
	}
	if b.claimed[requestID] {
		return fmt.Errorf("%w: %s", ErrDuplicateAnswer, requestID)
	}
	e := b.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	req, ok := e.pending[requestID]
	if !ok {
		return fmt.Errorf("%w: %s", e.missingRequestErrLocked(requestID), requestID)
	}
	tuple, err := e.requestTuple(req, openValues)
	if err != nil {
		return err
	}
	b.claimed[requestID] = true
	b.items = append(b.items, batchItem{index: idx, requestID: requestID, relation: req.Relation, tuple: tuple})
	return nil
}

// AnswerFact stages a complete tuple for an open relation (the whole-fact
// twin of Engine.AnswerFact). The fact is validated and coerced now but
// inserted only when the batch commits, at which point every pending request
// with a matching key is closed. The returned error is also recorded in
// Errors.
func (b *AnswerBatch) AnswerFact(relation string, values ...any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := b.next
	b.next++
	if err := b.stageFact(idx, relation, values); err != nil {
		b.errs = append(b.errs, BatchItemError{Index: idx, Err: err})
		return err
	}
	return nil
}

func (b *AnswerBatch) stageFact(idx int, relation string, values []any) error {
	if b.committed {
		return ErrBatchCommitted
	}
	decl := b.engine.analysis.Program.DeclarationFor(relation)
	if decl == nil || !decl.Open {
		return fmt.Errorf("cylog: relation %q is not an open relation", relation)
	}
	tuple, err := decl.Schema().Coerce(relstore.NewTuple(values...))
	if err != nil {
		return err
	}
	b.items = append(b.items, batchItem{index: idx, relation: relation, tuple: tuple})
	return nil
}

// Len returns the number of successfully staged items.
func (b *AnswerBatch) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// Errors returns the per-item rejections accumulated so far: staging-time
// validation failures plus commit-time failures (e.g. a request answered
// through another path between staging and commit).
func (b *AnswerBatch) Errors() []BatchItemError {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]BatchItemError(nil), b.errs...)
}

// CommitErrors returns only the rejections recorded while the batch
// committed — staged items whose request was closed (answered elsewhere or
// withdrawn by retraction) between staging and commit. Staging-time failures
// were already returned to the staging caller; this is the set a
// round-driving loop still needs to report after RunIncremental.
func (b *AnswerBatch) CommitErrors() []BatchItemError {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]BatchItemError(nil), b.commitErrs...)
}

// applyLocked commits the staged items: each tuple is inserted (newly added
// ones become seed deltas for the incremental run), request items close their
// request, and fact items sweep the pending set with the shared key matcher.
// Items are re-validated against the live pending set — a request answered
// between staging and commit is recorded in errs and skipped, never aborting
// the rest of the batch. Caller holds b.mu and e.mu.
func (b *AnswerBatch) applyLocked() {
	e := b.engine
	commitErr := func(it batchItem, err error) {
		be := BatchItemError{Index: it.index, Err: err}
		b.errs = append(b.errs, be)
		b.commitErrs = append(b.commitErrs, be)
	}
	for _, it := range b.items {
		if it.requestID != "" {
			if _, ok := e.pending[it.requestID]; !ok {
				commitErr(it, fmt.Errorf("%w: %s (closed before the batch committed)", e.missingRequestErrLocked(it.requestID), it.requestID))
				continue
			}
		}
		added, err := e.db.Relation(it.relation).Insert(it.tuple)
		if err != nil {
			// Unreachable for staged items (tuples are pre-coerced), kept as a
			// per-item error so one surprise cannot poison the batch.
			commitErr(it, err)
			continue
		}
		if added {
			e.stageDelta(it.relation, it.tuple)
			if it.requestID != "" {
				e.journalOp(OpAnswer, it.requestID, it.relation, it.tuple)
			} else {
				e.journalOp(OpAnswerFact, "", it.relation, it.tuple)
			}
		}
		if it.requestID != "" {
			e.closePendingLocked(it.requestID)
		} else {
			e.closeRequestsMatching(e.analysis.Program.DeclarationFor(it.relation), it.tuple)
		}
	}
	b.committed = true
}
