package platform

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/project"
)

// Service-layer ingress. The HTTP API (internal/api) ingests worker answers
// at a rate the collaborative task loop never sees: thousands of concurrent
// submitters, millions of answers. The ingress queue for that traffic is the
// engine's own AnswerBatch — concurrent-safe staging with eager validation —
// organised into numbered rounds: StageAnswer stages into the project's
// current round and returns its sequence number, CommitRound atomically
// commits the round through the delta-seeded incremental fixpoint (and the
// WAL, when attached) and advances the sequence. The round number is the
// contract between ingestion and derivation: an answer staged into round N is
// durable and derived exactly when the commit of some round >= N completes,
// which is how the API layer measures answer→fixpoint latency and how
// clients can await their consequences.
//
// GenerateTasksFromCyLog commits through the same path, so the collaborative
// loop and the HTTP ingress share one round pipeline per project and cannot
// double-commit or lose a concurrently staged answer.

// ErrNoEngine reports a project that exists but has no CyLog description —
// nothing can be staged against or derived for it.
var ErrNoEngine = errors.New("platform: project has no CyLog engine")

// roundState is a project's currently staging answer round: the batch
// collecting answers plus the sequence number CommitRound will stamp on it.
type roundState struct {
	batch *cylog.AnswerBatch
	seq   uint64
}

// EngineFor resolves the project's engine. Only when the project has none
// does it consult the registry, to tell an unknown project
// (project.ErrUnknownProject) from a project without a CyLog description
// (ErrNoEngine): an engine exists only for a registered project, and the
// registry's Get copies the admin record, which the feed, answer and fact
// paths have no use for.
func (p *Platform) EngineFor(projectID project.ID) (*cylog.Engine, error) {
	if eng := p.Engine(projectID); eng != nil {
		return eng, nil
	}
	if _, ok := p.Projects.Get(projectID); !ok {
		return nil, fmt.Errorf("%w: %s", project.ErrUnknownProject, projectID)
	}
	return nil, fmt.Errorf("%w: %s", ErrNoEngine, projectID)
}

// currentRound returns the project's staging round, opening a new one (with
// the next sequence number) when none is staging.
func (p *Platform) currentRound(id project.ID, eng *cylog.Engine) (*cylog.AnswerBatch, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rs := p.rounds[id]
	if rs == nil {
		if p.nextRound[id] == 0 {
			p.nextRound[id] = 1
		}
		rs = &roundState{batch: eng.NewAnswerBatch(), seq: p.nextRound[id]}
		p.rounds[id] = rs
	}
	return rs.batch, rs.seq
}

// retireRound drops the project's round if it still holds the given
// (already committed) batch, so the next stage opens a fresh round.
func (p *Platform) retireRound(id project.ID, b *cylog.AnswerBatch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rs := p.rounds[id]; rs != nil && rs.batch == b {
		delete(p.rounds, id)
	}
}

// StageAnswer stages a worker's answer for a pending open request into the
// project's current round and returns the round's sequence number. Staging
// validates eagerly (unknown request ids, closed requests, schema mismatches
// and duplicate answers within the round are rejected now) but inserts
// nothing: the answer takes effect when the round commits. Safe for any
// number of concurrent callers; a stage that races with a commit retries into
// the next round rather than losing the answer.
func (p *Platform) StageAnswer(projectID project.ID, requestID string, values map[string]any) (uint64, error) {
	eng, err := p.EngineFor(projectID)
	if err != nil {
		return 0, err
	}
	for {
		batch, seq := p.currentRound(projectID, eng)
		err := batch.Answer(requestID, values)
		if errors.Is(err, cylog.ErrBatchCommitted) {
			p.retireRound(projectID, batch)
			continue
		}
		if err == nil {
			p.signalStaged()
		}
		return seq, err
	}
}

// StageFact stages a whole open-relation fact (the ingress twin of
// Engine.AnswerFact) into the project's current round and returns the round's
// sequence number. When the round commits, every pending request whose key
// the fact covers is closed.
func (p *Platform) StageFact(projectID project.ID, relation string, values ...any) (uint64, error) {
	eng, err := p.EngineFor(projectID)
	if err != nil {
		return 0, err
	}
	for {
		batch, seq := p.currentRound(projectID, eng)
		err := batch.AnswerFact(relation, values...)
		if errors.Is(err, cylog.ErrBatchCommitted) {
			p.retireRound(projectID, batch)
			continue
		}
		if err == nil {
			p.signalStaged()
		}
		return seq, err
	}
}

// AddFact ingests a base fact into the project's engine (Engine.AddFact). It
// is staged as a seed delta and derived by the next commit; before the
// project's first fixpoint it is only loaded, since the first commit
// evaluates everything, and the deriver is not woken.
func (p *Platform) AddFact(projectID project.ID, relation string, values ...any) error {
	eng, err := p.EngineFor(projectID)
	if err != nil {
		return err
	}
	if err := eng.AddFact(relation, values...); err != nil {
		return err
	}
	if eng.StagedDeltas() > 0 {
		p.signalStaged()
	}
	return nil
}

// Staged returns the channel a deriver waits on: it receives a value after
// work is left for CommitRound — an answer or fact staged into a round
// (StageAnswer, StageFact) or a fact ingested into an engine (AddFact). The
// channel holds at most one signal and senders never block, so signals
// coalesce: a deriver that receives one and then commits every project with
// staged work misses nothing, because work staged after it looked signals
// again. One deriver per platform should receive from it; a second would take
// signals meant for the first.
func (p *Platform) Staged() <-chan struct{} { return p.staged }

// signalStaged records that work was left for CommitRound; see Staged.
func (p *Platform) signalStaged() {
	select {
	case p.staged <- struct{}{}:
	default:
	}
}

// StagedAnswers reports how many answers the project's current round holds —
// the ingress queue depth the API layer's admission control bounds.
func (p *Platform) StagedAnswers(projectID project.ID) int {
	p.mu.Lock()
	rs := p.rounds[projectID]
	p.mu.Unlock()
	if rs == nil {
		return 0
	}
	return rs.batch.Len()
}

// NextRound reports the sequence number the project's next commit will carry
// — the round any answer staged right now would join.
func (p *Platform) NextRound(id project.ID) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rs := p.rounds[id]; rs != nil {
		return rs.seq
	}
	if p.nextRound[id] == 0 {
		return 1
	}
	return p.nextRound[id]
}

// RoundCommit reports one committed answer round.
type RoundCommit struct {
	// Seq is the committed round's sequence number: every answer staged with
	// a round number <= Seq is now inserted, durable (if a WAL is attached)
	// and reflected in the fixpoint.
	Seq uint64
	// Answers is the number of staged items the round carried into the
	// commit; Skipped is the subset rejected at commit time (their request
	// closed between staging and commit — benign, recorded in the event log).
	Answers int
	Skipped int
	// Pending is the pending open-request view the fixpoint published: an
	// immutable snapshot that later commits do not change. Read its Len for
	// the count and a Page or All for the requests.
	Pending *cylog.PendingView
	// Stats is the engine's report for the fixpoint run.
	Stats cylog.Stats
	// Duration is the wall-clock cost of the commit: batch application,
	// fixpoint and WAL append.
	Duration time.Duration
}

// commitLock returns the project's commit mutex, creating it on first use.
func (p *Platform) commitLock(id project.ID) *sync.Mutex {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.commits == nil {
		p.commits = make(map[project.ID]*sync.Mutex)
	}
	cl := p.commits[id]
	if cl == nil {
		cl = &sync.Mutex{}
		p.commits[id] = cl
	}
	return cl
}

// CommitRound atomically commits the project's staging round: the batch's
// answers are inserted, the delta-seeded incremental fixpoint re-derives
// consequences, the round is persisted to the project's WAL (when attached)
// and a "fixpoint" event carrying the round number is recorded. With nothing
// staged it still runs (an empty round is how callers force re-derivation
// after AddFact-style ingestion) and still consumes a sequence number.
// Concurrent stagers are never lost: they either made this round's batch or
// are staging into the next one.
//
// Commits for one project are serialized end to end (detach through the
// "fixpoint" event) by the project's commit mutex, so concurrent callers —
// the API deriver loop, explicit POST .../fixpoint requests, and
// GenerateTasksFromCyLog — cannot interleave: round N's event is always
// recorded before round N+1 detaches, which is what lets a client treat
// "observed fixpoint round >= N" as proof that round N's answers are
// inserted and durable.
func (p *Platform) CommitRound(projectID project.ID) (RoundCommit, error) {
	eng, err := p.EngineFor(projectID)
	if err != nil {
		return RoundCommit{}, err
	}
	cl := p.commitLock(projectID)
	cl.Lock()
	defer cl.Unlock()
	batch, seq := p.detachRound(projectID)
	// With nothing staging the commit still consumes a sequence number (an
	// empty round), keeping round numbers monotone so "staged into round N,
	// committed by some round >= N" stays a valid durability test.
	start := time.Now()
	answers := 0
	if batch != nil {
		answers = batch.Len()
	}
	pending, err := eng.RunIncremental(batch)
	if err != nil {
		return RoundCommit{Seq: seq}, err
	}
	rc := RoundCommit{Seq: seq, Answers: answers, Pending: pending, Stats: eng.Stats()}
	if batch != nil {
		for _, be := range batch.CommitErrors() {
			rc.Skipped++
			p.record(Event{Kind: "cylog-answer-skipped", Project: projectID, Round: seq, Message: be.Error()})
		}
	}
	// Durability barrier: the round's answers reach the WAL before the commit
	// is acknowledged or any consequence is handed out.
	if err := p.persistRound(projectID, eng); err != nil {
		return rc, err
	}
	// With the round durable, let the backend enforce its residency policy
	// (the disk backend pages cold relations out between rounds; memory is a
	// no-op). Best-effort: failures become events, not commit failures.
	p.maintainBackend(projectID, eng)
	rc.Duration = time.Since(start)
	p.record(Event{Kind: "fixpoint", Project: projectID, Round: seq,
		Message: fmt.Sprintf("%d answers (%d skipped), %d pending requests, %s",
			rc.Answers, rc.Skipped, rc.Pending.Len(), rc.Duration.Round(time.Microsecond))})
	return rc, nil
}

// detachRound removes and returns the project's staging round (a nil batch
// when none is staged) and advances the round sequence.
func (p *Platform) detachRound(id project.ID) (*cylog.AnswerBatch, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nextRound[id] == 0 {
		p.nextRound[id] = 1
	}
	seq := p.nextRound[id]
	var batch *cylog.AnswerBatch
	if rs := p.rounds[id]; rs != nil {
		batch, seq = rs.batch, rs.seq
		delete(p.rounds, id)
	}
	p.nextRound[id] = seq + 1
	return batch, seq
}

// Subscribe registers a sink that observes every platform event as it is
// recorded (after the event log append, outside the platform lock). The
// returned cancel function unregisters it. Sinks run synchronously on the
// recording goroutine — keep them fast and never call back into the platform
// from one.
func (p *Platform) Subscribe(fn func(Event)) (cancel func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.subs == nil {
		p.subs = make(map[int]func(Event))
	}
	id := p.nextSub
	p.nextSub++
	p.subs[id] = fn
	return func() {
		p.mu.Lock()
		delete(p.subs, id)
		p.mu.Unlock()
	}
}
