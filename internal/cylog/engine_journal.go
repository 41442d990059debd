package cylog

import (
	"fmt"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Ingestion journal
//
// The engine's durable state is exactly the facts ingested from outside
// evaluation: AddFact seeds, request answers (items of a committed
// AnswerBatch), and whole-fact answers (AnswerFact, or items of a committed
// AnswerBatch). Everything else — derived
// relations, pending open requests — is a pure function of those facts, and
// the incremental/retraction differential tests prove re-deriving equals the
// original run. The journal records each *applied* ingestion operation (an
// insert the relation actually accepted; duplicates and rejected batch items
// are not recorded, so replay applies exactly what the original run applied)
// so a write-ahead log can persist them, and ReplayOps can re-apply
// a persisted sequence onto a recovered engine.

// OpKind identifies the ingestion path a journaled operation took.
type OpKind uint8

const (
	// OpAddFact is an external fact ingested through Engine.AddFact.
	OpAddFact OpKind = iota + 1
	// OpAnswer is a reply to a specific open request (a request item of a
	// committed AnswerBatch). RequestID records the request it closed.
	OpAnswer
	// OpAnswerFact is a whole-fact answer to an open relation
	// (Engine.AnswerFact or a fact item of a committed AnswerBatch).
	OpAnswerFact
)

// String names the kind for logs and errors.
func (k OpKind) String() string {
	switch k {
	case OpAddFact:
		return "add-fact"
	case OpAnswer:
		return "answer"
	case OpAnswerFact:
		return "answer-fact"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// FactOp is one applied ingestion operation: the schema-coerced tuple that was
// inserted, the relation it went into, and for request answers the id of the
// request it closed. The tuple is stored post-coercion, so replaying it
// re-inserts byte-identical data.
type FactOp struct {
	Kind      OpKind
	RequestID string // set only for OpAnswer
	Relation  string
	Tuple     relstore.Tuple
}

// SetJournaling enables or disables recording applied ingestion operations.
// Enable it after recovery completes (so replayed operations are not recorded
// again) and before the first live ingestion the caller wants durable.
func (e *Engine) SetJournaling(enabled bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journaling = enabled
	if !enabled {
		e.journal = nil
	}
}

// Journal returns the operations recorded and not yet trimmed, oldest
// first. The slice is read-only and later recordings do not change it. The
// caller (the platform's commit path) persists it through the WAL before
// acking the round's workers, then trims what it persisted, so an operation
// leaves the journal only once it is durable.
func (e *Engine) Journal() []FactOp {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journal[:len(e.journal):len(e.journal)]
}

// TrimJournal drops the oldest n recorded operations: the prefix of a
// Journal the caller has persisted. Operations recorded since that Journal
// call stay.
func (e *Engine) TrimJournal(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = append([]FactOp(nil), e.journal[min(n, len(e.journal)):]...)
}

// journalOp records an applied ingestion operation. Caller holds e.mu and has
// already inserted the tuple successfully.
func (e *Engine) journalOp(kind OpKind, requestID, relation string, tuple relstore.Tuple) {
	if !e.journaling {
		return
	}
	e.journal = append(e.journal, FactOp{Kind: kind, RequestID: requestID, Relation: relation, Tuple: tuple})
}

// ReplayOps re-applies a persisted operation sequence: each tuple is inserted
// into its relation (new insertions become seed deltas for the next
// incremental run, exactly like live ingestion) and answer operations close
// any pending request their fact satisfies. Replay is idempotent — an
// operation whose tuple is already present inserts nothing and stages no
// delta — and is never itself journaled, so recovery cannot re-record the
// operations it replays. It returns how many operations inserted a new tuple.
// Follow a replay with Run or RunIncremental(nil) to derive the consequences.
func (e *Engine) ReplayOps(ops []FactOp) (applied int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishPendingLocked()
	for i, op := range ops {
		rel := e.db.Relation(op.Relation)
		if rel == nil {
			return applied, fmt.Errorf("cylog: replay op %d (%s): relation %q is not declared", i, op.Kind, op.Relation)
		}
		switch op.Kind {
		case OpAddFact:
			if e.analysis.IDB[op.Relation] {
				return applied, fmt.Errorf("cylog: replay op %d: relation %q is derived by rules", i, op.Relation)
			}
		case OpAnswer, OpAnswerFact:
			decl := e.analysis.Program.DeclarationFor(op.Relation)
			if decl == nil || !decl.Open {
				return applied, fmt.Errorf("cylog: replay op %d (%s): relation %q is not an open relation", i, op.Kind, op.Relation)
			}
		default:
			return applied, fmt.Errorf("cylog: replay op %d: unknown kind %s", i, op.Kind)
		}
		added, err := rel.Insert(op.Tuple)
		if err != nil {
			return applied, fmt.Errorf("cylog: replay op %d (%s %s): %w", i, op.Kind, op.Relation, err)
		}
		if added {
			applied++
			e.stageDelta(op.Relation, op.Tuple)
		}
		if op.Kind == OpAnswer || op.Kind == OpAnswerFact {
			// Close any pending request the fact satisfies. On a fresh
			// recovery target the pending set is empty and the subsequent run
			// never re-issues these requests (keyExists sees the fact); on a
			// live engine this mirrors the original ingestion exactly.
			e.closeRequestsMatching(e.analysis.Program.DeclarationFor(op.Relation), op.Tuple)
		}
	}
	return applied, nil
}
