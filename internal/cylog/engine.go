package cylog

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// OpenRequest is a human micro-task generated by the engine: a rule needed a
// tuple of an open relation that no worker has supplied yet. The platform
// turns requests into tasks in the task pool; when an answer arrives the
// corresponding fact is inserted and evaluation resumes.
type OpenRequest struct {
	// ID uniquely identifies the request (relation + key values).
	ID string
	// Relation is the open relation the answer will populate.
	Relation string
	// Prompt is the question from the declaration's `asks` clause.
	Prompt string
	// Scheme is the collaboration scheme from the declaration (may be empty).
	Scheme string
	// KeyColumns and KeyValues are the bound columns identifying the task
	// (e.g. the sentence id and text to translate).
	KeyColumns []string
	KeyValues  []relstore.Value
	// OpenColumns are the columns workers must fill in.
	OpenColumns []string
}

// Key returns the key as a column→value map.
func (r OpenRequest) Key() map[string]relstore.Value {
	out := make(map[string]relstore.Value, len(r.KeyColumns))
	for i, c := range r.KeyColumns {
		out[c] = r.KeyValues[i]
	}
	return out
}

// String renders a short description.
func (r OpenRequest) String() string {
	parts := make([]string, len(r.KeyColumns))
	for i, c := range r.KeyColumns {
		parts[i] = fmt.Sprintf("%s=%s", c, r.KeyValues[i])
	}
	return fmt.Sprintf("request(%s {%s} -> %v)", r.Relation, strings.Join(parts, ", "), r.OpenColumns)
}

// Stats reports work done by the most recent Run call.
type Stats struct {
	Iterations      int
	RuleEvaluations int
	// DerivedFacts counts the tuples the run added to derived relations that
	// they did not hold before the run. Tuples a recompute cleared and
	// derived again count as ReDerivedTuples instead.
	DerivedFacts   int
	JoinedBindings int
	OpenRequests   int
	// IndexProbes counts equality lookups issued for body atoms with bound
	// join columns; IndexHits counts the subset answered by a composite hash
	// index rather than a scan. FullScans counts atom evaluations that fell
	// back to scanning the whole relation. Benchmarks and tests use these to
	// assert the planner actually engages.
	IndexProbes int
	IndexHits   int
	FullScans   int
	// DeltaHashProbes counts per-binding lookups answered by the per-round
	// hash of the delta frontier instead of a linear delta scan.
	DeltaHashProbes int
	// RequestChecks counts the bindings that reached an open atom's request
	// check (does the binding determine a key with no fact yet?); see
	// requestSinkFor for the atoms that skip it.
	RequestChecks int
	// ParallelTasks counts the evaluation work units (rule variants and their
	// splits) of the iterations handed to the worker pool (which runs a lone
	// task on the calling goroutine all the same). It stays zero when the
	// engine runs on one worker, and small delta rounds (smallDeltaRound),
	// such as a one-answer commit's, run inline and add nothing.
	ParallelTasks int
	// SkippedStrata counts the strata RunIncremental skipped outright because
	// none of their inputs (Analysis.StratumInputs and StratumNegInputs)
	// changed since the last fixpoint. Always zero for a full Run.
	SkippedStrata int
	// SeededDeltas counts the tuples RunIncremental seeded into the first
	// delta frontiers — the facts ingested since the last fixpoint (answer
	// batches, AnswerFact, AddFact) whose consequences the run derives.
	// Always zero for a full Run.
	SeededDeltas int
	// RetractedTuples counts the derived tuples this run removed: tuples
	// whose every derivation was invalidated (for example by a fact landing
	// in a relation they negate).
	RetractedTuples int
	// ReDerivedTuples counts the tuples a recompute cleared but that survived
	// it: a recursive stratum that must retract (docs/ARCHITECTURE.md §9) is
	// cleared down to its base facts and re-derived, and so is every derived
	// relation on a full run. Counting maintenance re-derives nothing.
	ReDerivedTuples int
	// PlanCacheHits and PlanCacheMisses count compiled-plan lookups served
	// from the plan cache versus re-planned because no entry matched the
	// current (rule, cardinality buckets) key. In the steady state of an
	// incremental oracle loop hits dominate — the cache's whole point.
	PlanCacheHits   int
	PlanCacheMisses int
}

// merge folds the join-side counters a worker accumulated into s. The
// coordinating fixpoint loop owns Iterations, RuleEvaluations, DerivedFacts,
// ParallelTasks and OpenRequests, so those are left alone.
func (s *Stats) merge(o Stats) {
	s.JoinedBindings += o.JoinedBindings
	s.IndexProbes += o.IndexProbes
	s.IndexHits += o.IndexHits
	s.FullScans += o.FullScans
	s.DeltaHashProbes += o.DeltaHashProbes
	s.RequestChecks += o.RequestChecks
	s.PlanCacheHits += o.PlanCacheHits
	s.PlanCacheMisses += o.PlanCacheMisses
}

// Engine evaluates a CyLog program bottom-up over a relstore database. The
// zero value is not usable; create engines with NewEngine. Engines are safe
// for concurrent use.
type Engine struct {
	mu       sync.Mutex
	analysis *Analysis
	db       *relstore.Database
	// parallelism is the worker-pool size for stratum evaluation; at 1 the
	// pool runs every task inline. Set at construction from
	// CYLOG_PARALLELISM or runtime.GOMAXPROCS, overridable via
	// SetParallelism.
	parallelism int
	// bookkeeper guards the single-writer invariant of evaluation-side
	// bookkeeping: admitRequests and stageDelta mutate the pending/staged
	// maps without finer locking because exactly one goroutine — the one
	// holding e.mu, which is also the merge writer of stratum evaluation —
	// may ever run them. The guard turns a future violation (e.g. a refactor
	// moving request admission into pool workers) into an immediate panic
	// instead of silent map corruption.
	bookkeeper atomic.Int32
	// rowSchemas holds each rule's variable→slot schema for binding rows.
	// Built once at construction, read-only afterwards, so concurrent rule
	// evaluations share it freely.
	rowSchemas map[*Rule]*rowSchema
	// staged accumulates the tuples inserted outside evaluation since the
	// last fixpoint (answer batches, AnswerFact, AddFact), per relation — the
	// seed deltas of the next RunIncremental. Tracking starts after the first
	// run (ranOnce): the first fixpoint is always full, so staging before it
	// would only hold memory. Facts inserted directly into Database() bypass
	// staging; follow such writes with a full Run.
	staged map[string][]relstore.Tuple
	// stagedCount is the number of tuples in staged, kept apart so
	// StagedDeltas can read it without e.mu. Written under e.mu only, by
	// stageDelta and clearStaged.
	stagedCount atomic.Int64
	// ranOnce records that some fixpoint has completed, i.e. the database is
	// at a fixpoint w.r.t. everything but the staged tuples — the
	// precondition for seeding deltas instead of re-running in full. Cleared
	// when a run fails partway so the next run falls back to full.
	ranOnce bool
	// pending holds open requests not yet answered, keyed by request id. A
	// request is allocated when it joins and never modified afterwards: the
	// published views share the pointer.
	pending map[string]*OpenRequest
	// pendingView is the ID-sorted pending set as published by the last
	// operation that changed it (publishPendingLocked, before that operation
	// releases e.mu). A published snapshot is never modified, so readers
	// load it without taking the lock.
	pendingView atomic.Pointer[PendingView]
	// pendingChanged holds the ids that joined or left pending since the
	// view was last published, so publishing rebuilds only the chunks they
	// fall in. Written under e.mu.
	pendingChanged map[string]struct{}
	// requestSupport maps each pending request id to its support per origin
	// stratum: the number of bindings of that stratum's rules that reach an
	// open atom with the request's key and no fact for it. Counting
	// maintenance adds and subtracts bindings; a request whose support drops
	// to zero everywhere is withdrawn instead of dangling forever. Entries
	// live exactly as long as the pending entry.
	requestSupport map[string]map[int]int
	// withdrawn remembers ids of requests the retraction machinery closed
	// because their generating derivation vanished. Unlike answered ids they
	// may be re-issued if the derivation returns; until then, answering one
	// reports ErrRequestClosed.
	withdrawn map[string]bool
	// answered remembers ids of answered requests so they are not re-issued.
	answered  map[string]bool
	lastStats Stats
	// journaling enables recording applied ingestion operations (AddFact,
	// AnswerFact, committed batch items) into journal, for a write-ahead log
	// to drain and persist. Off by default; recovery replays with it off so
	// replayed operations are not journaled again.
	journaling bool
	journal    []FactOp
	// planRels maps each rule to the distinct relations of its closed
	// positive body atoms, in first-appearance order — the relations whose
	// cardinalities influence the rule's plan, read for the cache key. Built
	// once at construction, read-only afterwards.
	planRels map[*Rule][]*relstore.Relation
	// planCache holds each rule's cached compiled plans (see plancache.go).
	// The outer map is built once at construction and never mutated; each
	// rulePlans synchronises itself.
	planCache map[*Rule]*rulePlans
}

// Auto-indexing policy: relations smaller than autoIndexMinRows are cheap to
// scan and never get an index. Above the threshold an index is built the
// first time a bound join-key shape needs it — building costs one scan, so
// even a shape probed only once breaks even, and shapes that recur across
// fixpoint iterations and crowdsourcing rounds amortise to O(matches).
const autoIndexMinRows = 32

// ErrUnknownRequest is returned by AnswerBatch.Answer for an unknown request
// id.
var ErrUnknownRequest = errors.New("cylog: unknown open request")

// ErrRequestClosed reports an answer for a request that no longer accepts
// one: it was already answered through some path, or the retraction machinery
// withdrew it because the derivation that generated it vanished. It wraps
// ErrUnknownRequest so existing errors.Is checks keep matching; callers that
// want to skip only benign late answers (and surface genuine bugs) should
// match this narrower sentinel.
var ErrRequestClosed = fmt.Errorf("%w (already answered or withdrawn)", ErrUnknownRequest)

// NewEngine analyses the program and prepares an engine with its declared
// relations created in a fresh database and program facts loaded.
func NewEngine(p *Program) (*Engine, error) {
	return NewEngineWith(p, relstore.NewDatabase())
}

// NewEngineWith is NewEngine over a caller-constructed database — the hook
// that picks the storage backend (relstore.NewDatabaseWith). Derived (IDB)
// relations are marked volatile on the backend before creation: the evaluator
// holds direct pointers into them and they are recomputed, not persisted, so
// only base (EDB and open) relations are ever paged. The database must be
// fresh or carry relations matching the program's declared schemas (the
// recovery path re-attaches an engine to an imported database).
func NewEngineWith(p *Program, db *relstore.Database) (*Engine, error) {
	analysis, err := Analyze(p)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		analysis:       analysis,
		db:             db,
		parallelism:    defaultParallelism(),
		staged:         make(map[string][]relstore.Tuple),
		rowSchemas:     make(map[*Rule]*rowSchema, len(p.Rules)),
		pending:        make(map[string]*OpenRequest),
		requestSupport: make(map[string]map[int]int),
		withdrawn:      make(map[string]bool),
		answered:       make(map[string]bool),
		planRels:       make(map[*Rule][]*relstore.Relation, len(p.Rules)),
		planCache:      make(map[*Rule]*rulePlans, len(p.Rules)),
		pendingChanged: make(map[string]struct{}),
	}
	e.pendingView.Store(newPendingView(nil))
	for _, r := range p.Rules {
		e.rowSchemas[r] = newRowSchema(r, analysis.RuleVars[r])
	}
	for _, d := range p.Declarations {
		if analysis.IDB[d.Name] {
			e.db.Backend().MarkVolatile(d.Name)
		}
	}
	for _, d := range p.Declarations {
		if _, err := e.db.GetOrCreate(d.Name, d.Schema()); err != nil {
			return nil, err
		}
	}
	for _, r := range p.Rules {
		e.planCache[r] = &rulePlans{}
		seen := make(map[string]bool, len(r.Body))
		for _, lit := range r.Body {
			a, ok := lit.(*Atom)
			if !ok || a.Negated || analysis.OpenRelations[a.Predicate] || seen[a.Predicate] {
				continue
			}
			seen[a.Predicate] = true
			if rel := e.db.Relation(a.Predicate); rel != nil {
				e.planRels[r] = append(e.planRels[r], rel)
			}
		}
	}
	for _, f := range p.Facts {
		if _, err := e.db.Relation(f.Relation).Insert(f.Values); err != nil {
			return nil, fmt.Errorf("cylog: loading fact %s: %w", f, err)
		}
	}
	return e, nil
}

// defaultParallelism resolves the worker-pool size for new engines: the
// CYLOG_PARALLELISM environment variable when it holds a positive integer
// (the hook CI uses to force-run the whole suite on one worker), otherwise
// runtime.GOMAXPROCS.
func defaultParallelism() int {
	if s := os.Getenv("CYLOG_PARALLELISM"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the number of workers evaluating the rule variants of
// a fixpoint round. Every round evaluates its variants against a read-only
// view of the database — on a bounded pool of n workers, with large variants
// split over their restricted tuple sets, or inline when n == 1 or the round
// is a small delta round (smallDeltaRound) — then
// applies all derived tuples and open requests in a single-threaded merge
// step. n <= 0 restores the default (CYLOG_PARALLELISM or
// runtime.GOMAXPROCS).
//
// Every worker count derives byte-identical fixpoints and open requests:
// facts and requests are sets deduplicated on insert, and the merge step
// applies worker output in plan order, so request IDs and relation contents
// never depend on worker scheduling.
func (e *Engine) SetParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n <= 0 {
		n = defaultParallelism()
	}
	e.parallelism = n
}

// Parallelism returns the current worker-pool size for stratum evaluation.
func (e *Engine) Parallelism() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallelism
}

// Database returns the engine's backing database (shared, not a copy); the
// platform reads derived relations out of it. Facts inserted directly into
// the returned database after the first run bypass the engine's delta
// tracking and deletion propagation, so no later run is guaranteed to derive
// their consequences or retract what they invalidate; ingest through
// AddFact, AnswerFact or AnswerBatch, which keep every run sound.
// Contents loaded before the first run (snapshot recovery) are safe: the
// first run rebuilds every derived relation from the base facts.
func (e *Engine) Database() *relstore.Database { return e.db }

// Analysis returns the program analysis.
func (e *Engine) Analysis() *Analysis { return e.analysis }

// Stats returns statistics for the most recent Run.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastStats
}

// AddFact inserts an external fact (e.g. the platform mirrors registered
// workers and tasks into EDB relations). The relation must be declared. The
// inserted tuple is tracked as a seed delta for the next RunIncremental. A
// fact for an open relation is an answer: it goes through AnswerFact, which
// also closes every pending request its key covers.
func (e *Engine) AddFact(relation string, values ...any) error {
	if e.analysis.Program.IsOpen(relation) {
		return e.AnswerFact(relation, values...)
	}
	rel := e.db.Relation(relation)
	if rel == nil {
		return fmt.Errorf("cylog: relation %q is not declared", relation)
	}
	if e.analysis.IDB[relation] {
		return fmt.Errorf("cylog: relation %q is derived by rules; facts cannot be added to it", relation)
	}
	tuple, err := rel.Schema().Coerce(relstore.NewTuple(values...))
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	added, err := rel.Insert(tuple)
	if err != nil {
		return err
	}
	if added {
		e.stageDelta(relation, tuple)
		e.journalOp(OpAddFact, "", relation, tuple)
	}
	return nil
}

// stageDelta records a tuple inserted outside evaluation as a seed delta for
// the next RunIncremental. Before the first completed run the database has
// never been at a fixpoint, so the first run is always full and staging would
// only hold memory. Caller holds e.mu.
func (e *Engine) stageDelta(relation string, t relstore.Tuple) {
	defer e.claimBookkeeper()()
	if !e.ranOnce {
		return
	}
	e.staged[relation] = append(e.staged[relation], t)
	e.stagedCount.Add(1)
}

// clearStaged empties the staging buffer. Caller holds e.mu.
func (e *Engine) clearStaged() {
	e.staged = make(map[string][]relstore.Tuple)
	e.stagedCount.Store(0)
}

// StagedDeltas reports how many tuples were ingested through the engine
// (AddFact, AnswerFact) since the last completed fixpoint and await
// derivation by the next RunIncremental. Answers still staged in an
// AnswerBatch are not counted; they land when the batch commits. Before the
// first completed fixpoint nothing is staged (the first run is always full),
// so this reports 0. It does not take the engine lock, so a poller never
// waits behind a running fixpoint; a tuple staged concurrently may be missed
// until the next call.
func (e *Engine) StagedDeltas() int {
	return int(e.stagedCount.Load())
}

// claimBookkeeper asserts the single-writer invariant of request and
// delta-staging bookkeeping: the pending/requestSupport/staged maps have
// exactly one writer at a time — the goroutine holding e.mu, which during
// evaluation is the merge side of the stratum loop. Pool workers must never
// reach these maps; a violation panics immediately (a corrupted pending set
// would otherwise surface as a nondeterministic fixpoint long after the
// race). Returns the release func, for `defer e.claimBookkeeper()()`.
func (e *Engine) claimBookkeeper() func() {
	if !e.bookkeeper.CompareAndSwap(0, 1) {
		panic("cylog: concurrent request/delta bookkeeping writers; evaluation must funnel admissions through the single merge goroutine")
	}
	return func() { e.bookkeeper.Store(0) }
}

// Facts returns the tuples currently in the named relation (sorted).
func (e *Engine) Facts(relation string) []relstore.Tuple {
	rel := e.db.Relation(relation)
	if rel == nil {
		return nil
	}
	return rel.All()
}

// Run evaluates the program to a fixpoint: every stratum in order, each to a
// local fixpoint. It returns the open requests that are currently pending
// (newly generated ones plus previously generated but still unanswered ones),
// sorted by ID. The slice is the one PendingRequests returns for the
// published view: it is shared and must not be modified.
func (e *Engine) Run() ([]OpenRequest, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.runFullLocked()
	view := e.publishPendingLocked()
	if err != nil {
		return nil, err
	}
	return view.All(), nil
}

// runFullLocked is the full fixpoint: every derived relation is rebuilt from
// base support (conservativeClearLocked), every pending request is dropped,
// and every stratum is re-evaluated from its full relations, re-admitting the
// live requests. The result, derivation counts and request support included,
// is exactly the from-scratch fixpoint of the current facts whatever the
// engine held before. Caller holds e.mu and publishes the pending view
// afterwards.
func (e *Engine) runFullLocked() error {
	stats := Stats{}
	targets := make(map[string]bool, len(e.analysis.IDB))
	for rel := range e.analysis.IDB {
		targets[rel] = true
	}
	old := e.snapshotRelationsLocked(targets)
	for rel := range targets {
		e.conservativeClearLocked(rel)
	}
	e.dropAllRequestsLocked()
	for i, stratum := range e.analysis.Strata {
		if err := e.runStratum(i, stratum, nil, nil, &stats); err != nil {
			// A partial run leaves the database between fixpoints; force the
			// next run onto the full path so staged deltas cannot under-seed.
			e.ranOnce = false
			return err
		}
	}
	for rel, snap := range old {
		// An empty snapshot (the usual case on a first run: the cleared
		// relation held nothing) can neither retract nor re-derive; skipping
		// it keeps the common full run free of per-tuple diff work.
		if len(snap) > 0 {
			diffRetraction(e.db.Relation(rel), snap, &stats)
		}
	}
	e.finishRun(&stats)
	return nil
}

// conservativeClearLocked rebuilds a derived relation down to its
// program-declared facts. Unlike ClearDerived it does not trust stored
// support flags (a relation imported from a snapshot, for one, may carry
// derived tuples as base tuples), so only the program's own facts — the
// single base-fact source for IDB relations — are re-asserted. Caller holds
// e.mu.
func (e *Engine) conservativeClearLocked(rel string) {
	r := e.db.Relation(rel)
	if r == nil {
		return
	}
	r.Clear()
	for _, f := range e.analysis.Program.Facts {
		if f.Relation == rel {
			r.Insert(f.Values) //nolint:errcheck // validated at NewEngine
		}
	}
}

// runIncrementalLocked evaluates only the consequences of the tuples staged
// since the last fixpoint. The staged tuples start the round's delta; each
// stratum none of whose inputs changed is skipped outright, every other one
// counts the derivations and requests the delta gains and loses (runStratum)
// and adds its heads' net changes to the delta for the strata after it. A
// recursive stratum that loses an input tuple or sees a negated input change
// is recomputed instead (recomputeStratumLocked). Falls back to the full path
// when no fixpoint has completed yet (a fresh engine, or after a failed run).
// Caller holds e.mu and publishes the pending view afterwards.
func (e *Engine) runIncrementalLocked() error {
	if !e.ranOnce {
		return e.runFullLocked()
	}
	stats := Stats{}
	round := &delta{plus: e.staged}
	e.clearStaged()
	for _, ts := range round.plus {
		stats.SeededDeltas += len(ts)
	}
	for i, stratum := range e.analysis.Strata {
		if !round.reaches(e.analysis.StratumInputs[i]) && !round.reaches(e.analysis.StratumNegInputs[i]) {
			stats.SkippedStrata++
			continue
		}
		var err error
		if e.analysis.RecursiveStrata[i] && e.stratumNeedsRecompute(i, round) {
			err = e.recomputeStratumLocked(i, stratum, round, &stats)
		} else {
			heads := newDelta()
			err = e.runStratum(i, stratum, round, heads, &stats)
			heads.cancel()
			round.add(heads)
		}
		if err != nil {
			e.ranOnce = false
			return err
		}
	}
	e.finishRun(&stats)
	return nil
}

// stratumNeedsRecompute reports whether a recursive stratum must be
// recomputed rather than counted: some relation it reads positively lost
// tuples, or some relation it reads under negation changed. Counting cannot
// retract support that runs through a cycle; insertions alone it handles.
func (e *Engine) stratumNeedsRecompute(i int, round *delta) bool {
	for rel := range e.analysis.StratumInputs[i] {
		if len(round.minus[rel]) > 0 {
			return true
		}
	}
	return round.reaches(e.analysis.StratumNegInputs[i])
}

// recomputeStratumLocked is the retraction phase of a recursive stratum:
// every head of the stratum is cleared down to its base facts, the stratum's
// request support is dropped, and the whole stratum is re-run to a local
// fixpoint from its (already updated) inputs — re-deriving every surviving
// tuple with exact counts and re-admitting every still-generated request.
// The snapshot diff then yields the net deletions and insertions, which join
// the round's delta for the strata downstream. Caller holds e.mu.
func (e *Engine) recomputeStratumLocked(idx int, rules []*Rule, round *delta, stats *Stats) error {
	heads := make(map[string]bool)
	for _, r := range rules {
		heads[r.Head.Predicate] = true
	}
	old := e.snapshotRelationsLocked(heads)
	for rel := range heads {
		e.db.Relation(rel).ClearDerived()
	}
	e.dropStratumRequestsLocked(idx)
	if err := e.runStratum(idx, rules, nil, nil, stats); err != nil {
		return err
	}
	for rel, snap := range old {
		deleted, inserted := diffRetraction(e.db.Relation(rel), snap, stats)
		if len(deleted) > 0 {
			round.lose(rel, deleted...)
		}
		if len(inserted) > 0 {
			round.plus[rel] = append(round.plus[rel], inserted...)
		}
	}
	return nil
}

// snapshotEntry is one tuple of a pre-retraction snapshot plus whether it
// carried base support (base tuples are never cleared, so they are excluded
// from the re-derivation accounting).
type snapshotEntry struct {
	t    relstore.Tuple
	base bool
}

// snapshotRelationsLocked captures the contents and base flags of the target
// relations, keyed by tuple key, before they are over-deleted. One unsorted
// support scan per relation — the snapshot is a lookup map, so order does not
// matter. Caller holds e.mu.
func (e *Engine) snapshotRelationsLocked(targets map[string]bool) map[string]map[string]snapshotEntry {
	out := make(map[string]map[string]snapshotEntry, len(targets))
	for rel := range targets {
		r := e.db.Relation(rel)
		if r == nil {
			continue
		}
		m := make(map[string]snapshotEntry, r.Len())
		r.ScanSupport(func(t relstore.Tuple, base bool, _ int) bool {
			m[t.Key()] = snapshotEntry{t: t, base: base}
			return true
		})
		out[rel] = m
	}
	return out
}

// diffRetraction compares a relation's pre-retraction snapshot with its
// post-fixpoint contents: snapshot tuples that did not come back are the net
// deletions (Stats.RetractedTuples), cleared non-base tuples that did are the
// re-derived survivors (Stats.ReDerivedTuples, which the stratum loop had
// counted as DerivedFacts), and tuples absent from the snapshot are the net
// insertions. The relation is read with one unsorted scan; only the
// (typically much smaller) net deltas are sorted, so the deletion/insertion
// lists seeded downstream stay deterministic.
func diffRetraction(r *relstore.Relation, old map[string]snapshotEntry, stats *Stats) (deleted, inserted []relstore.Tuple) {
	seen := make(map[string]bool, len(old))
	r.Scan(func(t relstore.Tuple) bool {
		k := t.Key()
		if entry, ok := old[k]; ok {
			seen[k] = true
			if !entry.base {
				stats.ReDerivedTuples++
				stats.DerivedFacts--
			}
			return true
		}
		inserted = append(inserted, t)
		return true
	})
	for k, entry := range old {
		if !seen[k] {
			deleted = append(deleted, entry.t)
		}
	}
	byTuple := func(ts []relstore.Tuple) func(i, j int) bool {
		return func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 }
	}
	sort.Slice(deleted, byTuple(deleted))
	sort.Slice(inserted, byTuple(inserted))
	stats.RetractedTuples += len(deleted)
	return deleted, inserted
}

// dropAllRequestsLocked withdraws every pending request (a full run: the
// evaluation that follows re-admits exactly the live ones). Caller holds
// e.mu.
func (e *Engine) dropAllRequestsLocked() {
	for id := range e.pending {
		e.withdrawn[id] = true
		e.pendingChanged[id] = struct{}{}
	}
	e.pending = make(map[string]*OpenRequest)
	e.requestSupport = make(map[string]map[int]int)
}

// dropStratumRequestsLocked drops stratum idx's support from every pending
// request; requests supported only by that stratum are withdrawn (the
// recompute re-admits the ones still generated). Caller holds e.mu.
func (e *Engine) dropStratumRequestsLocked(idx int) {
	for id, support := range e.requestSupport {
		if _, ok := support[idx]; !ok {
			continue
		}
		delete(support, idx)
		if len(support) == 0 {
			e.withdrawLocked(id)
		}
	}
}

// withdrawLocked closes a pending request whose support vanished. Unlike an
// answered one it may be issued again if its support returns. Caller holds
// e.mu.
func (e *Engine) withdrawLocked(id string) {
	delete(e.requestSupport, id)
	if _, ok := e.pending[id]; ok {
		delete(e.pending, id)
		e.pendingChanged[id] = struct{}{}
		e.withdrawn[id] = true
	}
}

// finishRun publishes the run's stats and marks the database at a fixpoint:
// every staged tuple's consequences are now derived, so the staging buffer
// resets.
func (e *Engine) finishRun(stats *Stats) {
	stats.OpenRequests = len(e.pending)
	e.lastStats = *stats
	e.ranOnce = true
	if len(e.staged) > 0 {
		e.clearStaged()
	}
}

// RunIncremental applies the answer batch (when non-nil) and evaluates to the
// next fixpoint, seeding the delta frontiers directly from the newly inserted
// tuples — the batch's plus any staged by AnswerFact/AddFact since the last
// run — instead of re-evaluating every stratum from its full relations.
// Strata none of whose inputs changed are skipped outright
// (Stats.SkippedStrata). The fixpoint, the derivation counts, the pending
// requests and their IDs are byte-identical to a full Run; only the work
// differs. Per-item batch
// failures (e.g. a request answered after staging) are recorded in the
// batch's Errors and do not abort the run. Before the first completed run,
// and after a failed one, the batch is still applied but evaluation takes the
// full re-run path.
//
// Seeding only sees facts ingested through the engine (batches, AnswerFact,
// AddFact); a fact inserted directly into Database() is invisible to it —
// follow such writes with a full Run.
//
// It returns the pending view the run published. Unlike Run it does not
// flatten the view: a commit that changes a few of many pending requests
// costs no copy of the rest.
func (e *Engine) RunIncremental(batch *AnswerBatch) (*PendingView, error) {
	if batch != nil {
		if batch.engine != e {
			return nil, errors.New("cylog: answer batch was staged against a different engine")
		}
		batch.mu.Lock()
		defer batch.mu.Unlock()
		if batch.committed {
			return nil, ErrBatchCommitted
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if batch != nil {
		batch.applyLocked()
	}
	err := e.runIncrementalLocked()
	view := e.publishPendingLocked()
	if err != nil {
		return nil, err
	}
	return view, nil
}

// PendingView returns the published pending view without re-running
// evaluation and without taking the engine lock. A call that overlaps a run,
// an answer or a replay sees the set from before it, so it linearizes before
// that operation. Read a page, the length and the requests of one load, so
// that they agree with each other.
func (e *Engine) PendingView() *PendingView {
	return e.pendingView.Load()
}

// PendingRequests returns the currently pending open requests, sorted by ID:
// PendingView().All(). The first call after a publication flattens the view
// in O(P); the slice is cached with the view, shared by every caller and
// must not be modified.
func (e *Engine) PendingRequests() []OpenRequest {
	return e.pendingView.Load().All()
}

// publishPendingLocked brings the published view up to date with the pending
// map and returns it. Every exported operation that can change the pending
// set calls it before releasing e.mu. Only the changed ids are sorted, and
// only the chunks of the previous view they fall in are copied
// (PendingView.publish), so changing Δ of P requests costs O(Δ log Δ) for
// the sort plus O(P/pendingChunk + Δ·pendingChunk). Copying the whole view
// on every publication was three quarters of the bytes a closed loop of
// translate answers allocated (EXPERIMENTS.md §12). A full run that drops
// every request records every id. Caller holds e.mu.
func (e *Engine) publishPendingLocked() *PendingView {
	view := e.pendingView.Load()
	if len(e.pendingChanged) == 0 {
		return view
	}
	ids := make([]string, 0, len(e.pendingChanged))
	for id := range e.pendingChanged {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	view = view.publish(ids, e.pending)
	// A fresh map, not clear: ranging over a cleared map still walks every
	// bucket a full run's admissions grew it to.
	e.pendingChanged = make(map[string]struct{})
	e.pendingView.Store(view)
	return view
}

// missingRequestErrLocked classifies an id with no pending request: ids that
// were answered or withdrawn report ErrRequestClosed (the request once
// existed and was closed — a benign late answer), anything else the plain
// ErrUnknownRequest. Caller holds e.mu.
func (e *Engine) missingRequestErrLocked(id string) error {
	if e.answered[id] || e.withdrawn[id] {
		return ErrRequestClosed
	}
	return ErrUnknownRequest
}

// closePendingLocked marks a pending request answered and drops its
// bookkeeping. Caller holds e.mu.
func (e *Engine) closePendingLocked(id string) {
	delete(e.pending, id)
	e.pendingChanged[id] = struct{}{}
	delete(e.requestSupport, id)
	delete(e.withdrawn, id)
	e.answered[id] = true
}

// requestTuple builds the full fact answering req — the request's key values
// plus the caller-supplied open-column values — coerced against the declared
// schema, so the returned tuple is exactly what the relation will store (and
// what a seed delta must carry). Caller holds e.mu.
func (e *Engine) requestTuple(req *OpenRequest, openValues map[string]any) (relstore.Tuple, error) {
	decl := e.analysis.Program.DeclarationFor(req.Relation)
	tuple := make(relstore.Tuple, len(decl.Columns))
	key := req.Key()
	for i, col := range decl.Columns {
		if v, bound := key[col.Name]; bound {
			tuple[i] = v
			continue
		}
		raw, given := openValues[col.Name]
		if !given {
			return nil, fmt.Errorf("cylog: answer for %s is missing column %q", req.Relation, col.Name)
		}
		tuple[i] = relstore.FromGo(raw)
	}
	ct, err := decl.Schema().Coerce(tuple)
	if err != nil {
		return nil, fmt.Errorf("cylog: answer for %s does not match schema: %w", req.Relation, err)
	}
	return ct, nil
}

// matchesRequestKey reports whether the fact satisfies every key column of
// the pending request — the key-matching rule shared by every fact-ingestion
// path that sweeps the pending set (AnswerFact and batch fact items). Key
// columns may be a strict subset of the relation's columns; only they are
// compared.
func matchesRequestKey(decl *Declaration, req *OpenRequest, tuple relstore.Tuple) bool {
	for i, col := range req.KeyColumns {
		ci := decl.ColumnIndex(col)
		if ci < 0 || ci >= len(tuple) || !tuple[ci].Equal(req.KeyValues[i]) {
			return false
		}
	}
	return true
}

// closeRequestsMatching clears every pending request of the relation whose
// key the inserted fact satisfies, marking it answered so it is never
// re-issued. A declared key() makes the request id a pure function of the
// fact's key values, so the pending request is closed by direct lookup; only
// declarations without a key (whose requests key on whatever columns the
// generating rule happened to bind) need the full sweep. Caller holds e.mu.
func (e *Engine) closeRequestsMatching(decl *Declaration, tuple relstore.Tuple) {
	if len(decl.Key) > 0 {
		keyVals := make([]relstore.Value, len(decl.Key))
		for i, col := range decl.Key {
			ci := decl.ColumnIndex(col)
			if ci < 0 || ci >= len(tuple) {
				return
			}
			keyVals[i] = tuple[ci]
		}
		id := requestID(decl.Name, keyVals)
		if _, ok := e.pending[id]; ok {
			e.closePendingLocked(id)
		}
		return
	}
	for id, req := range e.pending {
		if req.Relation != decl.Name {
			continue
		}
		if matchesRequestKey(decl, req, tuple) {
			e.closePendingLocked(id)
		}
	}
}

// AnswerFact inserts a complete tuple into an open relation directly (used
// when the platform records a team result rather than answering a specific
// request) and clears any pending request with a matching key.
func (e *Engine) AnswerFact(relation string, values ...any) error {
	decl := e.analysis.Program.DeclarationFor(relation)
	if decl == nil || !decl.Open {
		return fmt.Errorf("cylog: relation %q is not an open relation", relation)
	}
	tuple, err := decl.Schema().Coerce(relstore.NewTuple(values...))
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishPendingLocked()
	added, err := e.db.Relation(relation).Insert(tuple)
	if err != nil {
		return err
	}
	if added {
		e.stageDelta(relation, tuple)
		e.journalOp(OpAnswerFact, "", relation, tuple)
	}
	e.closeRequestsMatching(decl, tuple)
	return nil
}

// RunToFixpointWithOracle repeatedly runs the program and answers every open
// request with the oracle function until no requests remain or maxRounds is
// reached. It is the engine-level "simulated crowd" hook used by tests and
// the benchmarks. The oracle returns the open-column values for a request,
// or false to leave it unanswered.
//
// Each round's answers are collected into an AnswerBatch and ingested through
// RunIncremental, so a round only derives the consequences of that round's
// answers.
func (e *Engine) RunToFixpointWithOracle(oracle func(OpenRequest) (map[string]any, bool), maxRounds int) (Stats, error) {
	if maxRounds <= 0 {
		maxRounds = 100
	}
	var total Stats
	var batch *AnswerBatch
	for round := 0; round < maxRounds; round++ {
		var err error
		if batch == nil {
			_, err = e.Run()
		} else {
			_, err = e.RunIncremental(batch)
		}
		if err != nil {
			return total, err
		}
		reqs := e.PendingRequests()
		s := e.Stats()
		total.Iterations += s.Iterations
		total.RuleEvaluations += s.RuleEvaluations
		total.DerivedFacts += s.DerivedFacts
		total.JoinedBindings += s.JoinedBindings
		total.IndexProbes += s.IndexProbes
		total.IndexHits += s.IndexHits
		total.FullScans += s.FullScans
		total.DeltaHashProbes += s.DeltaHashProbes
		total.RequestChecks += s.RequestChecks
		total.ParallelTasks += s.ParallelTasks
		total.SkippedStrata += s.SkippedStrata
		total.SeededDeltas += s.SeededDeltas
		total.RetractedTuples += s.RetractedTuples
		total.ReDerivedTuples += s.ReDerivedTuples
		total.PlanCacheHits += s.PlanCacheHits
		total.PlanCacheMisses += s.PlanCacheMisses
		total.OpenRequests = s.OpenRequests
		if len(reqs) == 0 {
			return total, nil
		}
		batch = e.NewAnswerBatch()
		answeredAny := false
		for _, r := range reqs {
			if vals, ok := oracle(r); ok {
				if err := batch.Answer(r.ID, vals); err != nil {
					return total, err
				}
				answeredAny = true
			}
		}
		if !answeredAny {
			return total, nil
		}
	}
	return total, nil
}

// runStratum evaluates one stratum's rules to a local fixpoint. idx is the
// stratum's index, recorded as the origin of the request support the stratum
// counts. A nil seed selects the full pass: the first iteration evaluates
// every rule without restriction. A non-nil seed selects the counting pass:
// the first iteration evaluates only the variants restricted to the seed's
// changes (the round's staged facts and the net changes of earlier strata),
// so unchanged inputs are never re-joined. Every later iteration evaluates
// the variants restricted to the changes the iteration before it made. When
// heads is non-nil, each iteration's net changes are added to it, for
// seeding the strata downstream.
//
// Each iteration evaluates its rule variants on the worker pool
// (evaluateTasks; inline at one worker and for small delta rounds). Workers
// treat the database as a read-only snapshot: no tuple is inserted or
// removed while they run (relstore's read-only view guarantee makes
// concurrent scans, probes and index auto-creation safe), and every
// mutation — head-tuple counts, request support, the next delta — happens
// afterwards in a single-threaded merge that applies worker output in plan
// order (mergeOutputs). Because every derivation is counted exactly once
// whichever task finds it, the fixpoint, the counts, the request IDs and the
// iterations are identical for every worker count; only the per-counter
// Stats breakdown (ParallelTasks, scans versus probes inside split variants)
// may differ.
func (e *Engine) runStratum(idx int, rules []*Rule, seed, heads *delta, stats *Stats) error {
	workers := e.parallelism
	d := seed
	for {
		stats.Iterations++
		var tasks []evalTask
		for _, r := range rules {
			variants, err := e.ruleVariants(r, d)
			if err != nil {
				return err
			}
			for _, v := range variants {
				stats.RuleEvaluations++
				tasks = e.splitVariant(tasks, r, v, workers, stats)
			}
		}
		poolSize := workers
		if smallDeltaRound(tasks) {
			poolSize = 1
		} else if workers > 1 {
			stats.ParallelTasks += len(tasks)
		}
		outputs := e.evaluateTasks(tasks, poolSize)
		next, err := e.mergeOutputs(idx, tasks, outputs, stats)
		if err != nil {
			return err
		}
		if next.empty() {
			return nil
		}
		if heads != nil {
			heads.add(next)
		}
		d = next
	}
}

// evalTask is one unit of evaluation work: a rule variant, possibly
// restricted to one chunk of its delta (or first-atom) tuple set.
type evalTask struct {
	rule *Rule
	v    ruleVariant
}

// evalOutput is what a worker hands back to the merge step.
type evalOutput struct {
	tuples   []relstore.Tuple
	requests requestSink
	stats    Stats
	err      error
}

// evaluateTasks runs the iteration's tasks on at most `workers` goroutines
// and returns their outputs indexed like tasks. At one worker, or for a
// single task, the tasks run inline to avoid pool overhead.
func (e *Engine) evaluateTasks(tasks []evalTask, workers int) []evalOutput {
	outputs := make([]evalOutput, len(tasks))
	runOne := func(i int) {
		out := &outputs[i]
		out.tuples, out.err = e.evaluateRule(tasks[i].rule, tasks[i].v, &out.stats, &out.requests)
	}
	if workers <= 1 || len(tasks) <= 1 {
		for i := range tasks {
			runOne(i)
		}
		return outputs
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				runOne(i)
			}
		}()
	}
	for i := range tasks {
		work <- i
	}
	close(work)
	wg.Wait()
	return outputs
}

// smallDeltaRound reports whether an iteration is too small for the pool:
// every task is restricted to a delta, and fewer than minSplitTuples tuples
// between them. Such an iteration runs inline whatever the worker count. A
// committed answer's rounds are of this kind — a translate answer yields
// three or four variants of one tuple each — and starting goroutines for
// them, under the engine lock, cost more than their joins.
func smallDeltaRound(tasks []evalTask) bool {
	n := 0
	for _, t := range tasks {
		if t.v.deltaAtom < 0 {
			return false
		}
		n += len(t.v.deltaTuples)
	}
	return n < minSplitTuples
}

// minSplitTuples is the smallest restricted-tuple slice worth splitting
// across workers, and the smallest delta round worth the pool at all
// (smallDeltaRound); below it, per-task overhead outweighs the parallelism.
const minSplitTuples = 128

// splitVariant appends one rule variant's work units to tasks. At one worker
// that is the variant whole. On a pool it splits the variant by chunking the
// tuples its restricted atom binds from: for a delta variant that is the delta
// frontier; for a full pass it is the relation of the atom the planner would
// schedule first, provided that atom is a closed positive atom with no bound
// probe columns (restricting a probe-answerable atom would trade an index
// lookup for chunk scans). The union of the chunks' results equals the whole
// variant's result: downstream joins, filters and request generation are
// per-binding, and the restricted atom contributes every tuple exactly once
// across chunks.
func (e *Engine) splitVariant(tasks []evalTask, r *Rule, v ruleVariant, workers int, stats *Stats) []evalTask {
	if workers <= 1 {
		return append(tasks, evalTask{rule: r, v: v})
	}
	atom, tuples := v.deltaAtom, v.deltaTuples
	if atom < 0 {
		atom, tuples = e.splittableFullScan(r, stats)
	}
	if atom < 0 || len(tuples) < 2*minSplitTuples {
		return append(tasks, evalTask{rule: r, v: v})
	}
	chunks := workers
	if max := len(tuples) / minSplitTuples; chunks > max {
		chunks = max
	}
	for c := 0; c < chunks; c++ {
		lo, hi := len(tuples)*c/chunks, len(tuples)*(c+1)/chunks
		chunk := v
		chunk.deltaAtom, chunk.deltaTuples = atom, tuples[lo:hi]
		tasks = append(tasks, evalTask{rule: r, v: chunk})
	}
	return tasks
}

// splittableFullScan picks the atom a full evaluation pass can be split on —
// the first step of the rule's cached plan, when it is a closed positive atom
// answered by an unbound full scan — and returns its body index and the
// relation's tuples. It returns -1 when the pass cannot be split (leading
// barrier, open atom, or a probe-answerable first atom, whose restriction
// would trade an index lookup for chunk scans). Forcing the chosen atom first
// via the delta-restriction mechanism reproduces the cached plan, since the
// delta atom always leads its run.
func (e *Engine) splittableFullScan(r *Rule, stats *Stats) (int, []relstore.Tuple) {
	steps := e.cachedPlan(r, -1, stats).steps
	if len(steps) == 0 {
		return -1, nil
	}
	a, ok := steps[0].lit.(*Atom)
	if !ok || a.Negated || e.analysis.OpenRelations[a.Predicate] || len(steps[0].probeCols) > 0 {
		return -1, nil
	}
	rel := e.db.Relation(a.Predicate)
	if rel == nil {
		return -1, nil
	}
	return steps[0].bodyIndex, rel.All()
}

// ruleVariant describes one evaluation pass of a rule: which body atom (if
// any) is restricted to an explicit tuple set, and how.
type ruleVariant struct {
	deltaAtom   int // index into rule body, -1 = no restriction (full evaluation)
	deltaTuples []relstore.Tuple
	// sign is +1 when the restricted tuples are gains (inserted tuples, or a
	// negated atom's unblocked keys) and the pass finds derivations gained,
	// -1 when they are losses and the pass finds derivations lost, and 0 for
	// an unrestricted pass or a chunk of one (splitVariant), which reads
	// every atom in the stored state.
	sign int
	// d is the change set a counting pass restricts to: atoms written after
	// deltaAtom read their relation's old state from it.
	d *delta
}

// ruleVariants returns the evaluation passes for a rule in this iteration:
// the single unrestricted pass when d is nil (a full first iteration),
// otherwise a gain and a loss variant per body atom whose relation changed
// in d. A positive atom is restricted to its relation's inserted or removed
// tuples; a negated atom to the keys whose match flipped (flippedKeys). The
// coordinator prepares the old-state reads the variants need before any
// worker runs. A rule with no body atom over a changed relation gains and
// loses nothing in this iteration.
func (e *Engine) ruleVariants(r *Rule, d *delta) ([]ruleVariant, error) {
	if d == nil {
		return []ruleVariant{{deltaAtom: -1}}, nil
	}
	var out []ruleVariant
	for i, lit := range r.Body {
		atom, ok := lit.(*Atom)
		if !ok || !d.changed(atom.Predicate) {
			continue
		}
		gained, lost := d.plus[atom.Predicate], d.minus[atom.Predicate]
		if atom.Negated {
			var err error
			if gained, lost, err = e.flippedKeys(r, atom, d); err != nil {
				return nil, err
			}
		}
		if len(gained) > 0 {
			out = append(out, ruleVariant{deltaAtom: i, deltaTuples: gained, sign: 1, d: d})
		}
		if len(lost) > 0 {
			out = append(out, ruleVariant{deltaAtom: i, deltaTuples: lost, sign: -1, d: d})
		}
		if len(gained) > 0 || len(lost) > 0 {
			d.prepareOld(r, i)
		}
	}
	return out, nil
}

// catalog returns the planner's view of the engine's database: open-relation
// membership and current cardinalities.
func (e *Engine) catalog() planCatalog {
	return planCatalog{
		isOpen: func(p string) bool { return e.analysis.OpenRelations[p] },
		card: func(p string) int {
			if rel := e.db.Relation(p); rel != nil {
				return rel.Len()
			}
			return 0
		},
	}
}

// shouldProbe decides whether a bound-column lookup should run as an index
// probe, auto-creating an index on the probed column set when the relation is
// worth indexing. Without an index a per-binding probe would itself scan,
// which is no better than the batch scan path, so the answer is "no" until
// the index exists. probeCols come from the planner as strictly ascending
// term positions, which map 1:1 onto column positions.
func (e *Engine) shouldProbe(rel *relstore.Relation, probeCols []int) bool {
	if rel.HasIndexAt(probeCols) {
		return true
	}
	if rel.Len() < autoIndexMinRows {
		return false
	}
	return rel.EnsureIndexAt(probeCols) == nil
}

// requestSink accumulates the open-request candidates produced while one rule
// variant is evaluated, with the number of bindings behind each id: the
// variant's gain or loss of support for the request. Admission against the
// pending set, the answered ids and the support counts happens when the
// single-threaded merge step applies the sink (admitRequests), so rule
// evaluation never writes shared engine state and variants can run
// concurrently.
type requestSink struct {
	index  map[string]int
	reqs   []OpenRequest
	counts []int
}

// bump counts one more binding for id and reports whether the sink already
// held it; a first binding is recorded with add.
func (s *requestSink) bump(id string) bool {
	i, ok := s.index[id]
	if ok {
		s.counts[i]++
	}
	return ok
}

func (s *requestSink) add(req OpenRequest) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	s.index[req.ID] = len(s.reqs)
	s.reqs = append(s.reqs, req)
	s.counts = append(s.counts, 1)
}

// requestSinkFor returns the sink the positive atom at bodyIndex records
// request candidates into under variant v, or nil when the variant cannot
// change any request's support there. A request's support at an open atom
// counts the bindings of the literals written before it; a counting
// variant changes only the bindings that involve its restricted atom, so it
// counts requests at the open atoms written after that atom and nowhere
// else — in particular not at a seeded open delta atom itself, so a
// one-answer round does not re-check the pending requests. Unrestricted
// passes and their chunks count at every open atom.
func requestSinkFor(v ruleVariant, bodyIndex int, sink *requestSink) *requestSink {
	if v.sign != 0 && bodyIndex <= v.deltaAtom {
		return nil
	}
	return sink
}

// admitRequests applies one variant's request candidates to the support
// counts of its stratum: each candidate's binding count is added, or
// subtracted when lost is set. A request that gains support joins the
// pending set (an id withdrawn earlier is issued again under the same id); a
// request whose support drops to zero in every stratum is withdrawn. Ids
// already answered are skipped: their key has a fact for good. A loss larger
// than the recorded support means the counts are wrong and fails the run. It
// runs only on the merge side, after the iteration barrier and in plan
// order, so the pending map is deterministic and identical for every worker
// count.
func (e *Engine) admitRequests(s *requestSink, stratum int, lost bool) error {
	defer e.claimBookkeeper()()
	for i := range s.reqs {
		r := &s.reqs[i]
		if e.answered[r.ID] {
			continue
		}
		n := s.counts[i]
		support := e.requestSupport[r.ID]
		if lost {
			if support[stratum] < n {
				return fmt.Errorf("cylog: request %s lost %d bindings in stratum %d, which supported it with %d", r.ID, n, stratum, support[stratum])
			}
			if support[stratum] -= n; support[stratum] == 0 {
				delete(support, stratum)
			}
			if len(support) == 0 {
				e.withdrawLocked(r.ID)
			}
			continue
		}
		if support == nil {
			support = make(map[int]int, 1)
			e.requestSupport[r.ID] = support
		}
		support[stratum] += n
		if _, dup := e.pending[r.ID]; !dup {
			// The request joins by pointer into the sink, which nothing
			// writes again, so admission allocates nothing; the sink's array
			// lives as long as some request it holds is pending.
			e.pending[r.ID] = r
			e.pendingChanged[r.ID] = struct{}{}
			delete(e.withdrawn, r.ID)
		}
	}
	return nil
}

// maybeRequest records an open-request candidate in sink when the binding
// row (the atom's term references refs read under row and its bound-slot
// mask) determines the open relation's key but the relation has no fact for
// that key yet.
func (e *Engine) maybeRequest(decl *Declaration, refs []termRef, row []relstore.Value, mask uint64, matched bool, sink *requestSink) {
	keyCols := decl.Key
	if len(keyCols) == 0 {
		// Default key: every column whose term is bound under the binding.
		for i, col := range decl.Columns {
			if i >= len(refs) {
				break
			}
			if _, bound := refs[i].value(row, mask); bound {
				keyCols = append(keyCols, col.Name)
			}
		}
	}
	if len(keyCols) == 0 {
		return
	}
	keyVals := make([]relstore.Value, 0, len(keyCols))
	for _, col := range keyCols {
		ci := decl.ColumnIndex(col)
		if ci < 0 || ci >= len(refs) {
			return
		}
		v, bound := refs[ci].value(row, mask)
		if !bound {
			return // key not fully determined; cannot ask yet
		}
		keyVals = append(keyVals, v)
	}
	// If a fact with this key already exists the question is answered;
	// matched==true implies at least one, but facts may also exist that do
	// not satisfy the other (constant-constrained) columns of the atom, so
	// check by key explicitly.
	if !matched && e.keyExists(decl, keyCols, keyVals) {
		return
	}
	if matched {
		return
	}
	id := requestID(decl.Name, keyVals)
	if sink.bump(id) {
		return
	}
	var openCols []string
	keySet := make(map[string]bool, len(keyCols))
	for _, c := range keyCols {
		keySet[c] = true
	}
	for _, c := range decl.Columns {
		if !keySet[c.Name] {
			openCols = append(openCols, c.Name)
		}
	}
	sink.add(OpenRequest{
		ID:          id,
		Relation:    decl.Name,
		Prompt:      decl.Prompt,
		Scheme:      decl.Scheme,
		KeyColumns:  append([]string(nil), keyCols...),
		KeyValues:   keyVals,
		OpenColumns: openCols,
	})
}

// keyExists reports whether the open relation already has a fact matching the
// request key. The key columns are resolved to ascending positions and probed
// through relstore's position-based existence check, so a relation indexed on
// the key answers in O(1) and an unindexed one stops at the first match.
func (e *Engine) keyExists(decl *Declaration, keyCols []string, keyVals []relstore.Value) bool {
	rel := e.db.Relation(decl.Name)
	positions := make([]int, len(keyCols))
	vals := make([]relstore.Value, len(keyCols))
	for i, col := range keyCols {
		positions[i] = decl.ColumnIndex(col)
		vals[i] = keyVals[i]
	}
	// Insertion-sort the pairs by position (keys are tiny); ContainsAt
	// requires strictly ascending positions.
	for i := 1; i < len(positions); i++ {
		for j := i; j > 0 && positions[j] < positions[j-1]; j-- {
			positions[j], positions[j-1] = positions[j-1], positions[j]
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	// A declaration may repeat a key column (the analyzer does not reject
	// it); collapse duplicates so the positions stay strictly ascending.
	// Conflicting values for the same column can never match a fact.
	n := 0
	for i := range positions {
		if n > 0 && positions[i] == positions[n-1] {
			if !vals[i].Equal(vals[n-1]) {
				return false
			}
			continue
		}
		positions[n], vals[n] = positions[i], vals[i]
		n++
	}
	found, err := rel.ContainsAt(positions[:n], vals[:n])
	if err != nil {
		return false
	}
	return found
}

func requestID(relation string, keyVals []relstore.Value) string {
	parts := make([]string, len(keyVals))
	for i, v := range keyVals {
		parts[i] = v.AsString()
	}
	return relation + "|" + strings.Join(parts, "\x1f")
}

func compareValues(l, r relstore.Value, op CompareOp) bool {
	switch op {
	case OpEq:
		return l.Equal(r)
	case OpNe:
		return !l.Equal(r)
	case OpLt:
		return l.Compare(r) < 0
	case OpLe:
		return l.Compare(r) <= 0
	case OpGt:
		return l.Compare(r) > 0
	case OpGe:
		return l.Compare(r) >= 0
	default:
		return false
	}
}
