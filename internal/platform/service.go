package platform

import (
	"errors"
	"fmt"
	"slices"
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

// servedProject is the platform's record of a project with a CyLog engine,
// created by RegisterProject: the engine and what the commit path keeps
// beside it.
type servedProject struct {
	id  project.ID
	eng *cylog.Engine
	// commit serializes the project's commits: CommitRound end to end,
	// whoever calls it (the deriver, SubmitResult, GenerateTasksFromCyLog or
	// the API's fixpoint endpoint). p.mu is dropped during the fixpoint and
	// the WAL append; without this lock two concurrent commits could publish
	// their round-stamped "fixpoint" events out of order, breaking the round
	// contract above, and race into the project's WAL.
	commit sync.Mutex

	// The fields below are guarded by p.mu.

	// batch is the answer round staging now (nil until an answer is staged
	// into it) and seq the sequence number CommitRound stamps on it, or on
	// an empty round when nothing is staged. seq starts at 1 and every
	// commit advances it.
	batch *cylog.AnswerBatch
	seq   uint64
	// wal is the attached write-ahead log, nil until AttachWAL; see
	// platform_wal.go.
	wal *walBinding
}

// lookup returns the project's record, or nil when the project has no
// engine.
func (p *Platform) lookup(id project.ID) *servedProject {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.served[id]
}

// EngineFor resolves the project's engine. Only when the project has none
// does it consult the registry, to tell an unknown project
// (project.ErrUnknownProject) from a project without a CyLog description
// (ErrNoEngine): an engine exists only for a registered project, and the
// registry's Get copies the admin record, which the feed, answer and fact
// paths have no use for.
func (p *Platform) EngineFor(projectID project.ID) (*cylog.Engine, error) {
	s, err := p.servedFor(projectID)
	if err != nil {
		return nil, err
	}
	return s.eng, nil
}

// servedFor is EngineFor for the project's whole record.
func (p *Platform) servedFor(projectID project.ID) (*servedProject, error) {
	if s := p.lookup(projectID); s != nil {
		return s, nil
	}
	if _, ok := p.Projects.Get(projectID); !ok {
		return nil, fmt.Errorf("%w: %s", project.ErrUnknownProject, projectID)
	}
	return nil, fmt.Errorf("%w: %s", ErrNoEngine, projectID)
}

// currentRound returns the project's staging round, opening one when none
// is staging.
func (p *Platform) currentRound(s *servedProject) (*cylog.AnswerBatch, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.batch == nil {
		s.batch = s.eng.NewAnswerBatch()
	}
	return s.batch, s.seq
}

// StageAnswer stages a worker's answer for a pending open request into the
// project's current round and returns the round's sequence number. Staging
// validates eagerly (unknown request ids, closed requests, schema mismatches
// and duplicate answers within the round are rejected now) but inserts
// nothing: the answer takes effect when the round commits. Safe for any
// number of concurrent callers; a stage that races with a commit retries into
// the next round rather than losing the answer.
func (p *Platform) StageAnswer(projectID project.ID, requestID string, values map[string]any) (uint64, error) {
	s, err := p.servedFor(projectID)
	if err != nil {
		return 0, err
	}
	for {
		batch, seq := p.currentRound(s)
		err := batch.Answer(requestID, values)
		if errors.Is(err, cylog.ErrBatchCommitted) {
			// CommitRound detaches a batch before it commits it, so the
			// next look finds a fresh round.
			continue
		}
		if err == nil {
			p.signalStaged()
		}
		return seq, err
	}
}

// AddFact ingests a fact into the project's engine (Engine.AddFact; a fact
// for an open relation also closes the requests its key covers). It is
// staged as a seed delta and derived by the next commit; before the
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
// work is left for CommitRound — an answer staged into a round
// (StageAnswer) or a fact ingested into an engine (AddFact). The channel
// holds at most one signal and senders never block, so signals coalesce: a
// deriver that receives one and then commits every project StagedProjects
// lists misses nothing, because work staged after it looked signals again.
// One deriver per platform should receive from it; a second would take
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
	var batch *cylog.AnswerBatch
	if s := p.served[projectID]; s != nil {
		batch = s.batch
	}
	p.mu.Unlock()
	if batch == nil {
		return 0
	}
	return batch.Len()
}

// StagedProjects returns, in id order, the projects with work left for
// CommitRound: answers staged into the current round, or facts ingested
// into the engine since its last fixpoint. A deriver commits them after
// each Staged signal. It copies no admin record.
func (p *Platform) StagedProjects() []project.ID {
	p.mu.Lock()
	recs := make([]*servedProject, 0, len(p.served))
	for _, s := range p.served {
		recs = append(recs, s)
	}
	p.mu.Unlock()
	var ids []project.ID
	for _, s := range recs {
		if p.StagedAnswers(s.id) > 0 || s.eng.StagedDeltas() > 0 {
			ids = append(ids, s.id)
		}
	}
	slices.Sort(ids)
	return ids
}

// NextRound reports the sequence number the project's next commit will carry
// — the round any answer staged right now would join.
func (p *Platform) NextRound(id project.ID) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.served[id]; s != nil {
		return s.seq
	}
	return 1
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
	s, err := p.servedFor(projectID)
	if err != nil {
		return RoundCommit{}, err
	}
	s.commit.Lock()
	defer s.commit.Unlock()
	// Detach the staging round, so stagers open the next one. With nothing
	// staging the commit still consumes a sequence number (an empty round),
	// keeping round numbers monotone so "staged into round N, committed by
	// some round >= N" stays a valid durability test.
	p.mu.Lock()
	batch, seq := s.batch, s.seq
	s.batch, s.seq = nil, seq+1
	p.mu.Unlock()
	start := time.Now()
	answers := 0
	if batch != nil {
		answers = batch.Len()
	}
	pending, err := s.eng.RunIncremental(batch)
	if err != nil {
		return RoundCommit{Seq: seq}, err
	}
	rc := RoundCommit{Seq: seq, Answers: answers, Pending: pending, Stats: s.eng.Stats()}
	if batch != nil {
		for _, be := range batch.CommitErrors() {
			rc.Skipped++
			p.record(Event{Kind: "cylog-answer-skipped", Project: projectID, Round: seq, Message: be.Error()})
		}
	}
	// Durability barrier: the round's answers reach the WAL before the commit
	// is acknowledged or any consequence is handed out.
	if err := p.persistRound(s); err != nil {
		return rc, err
	}
	// With the round durable, let the backend enforce its residency policy
	// (the disk backend pages cold relations out between rounds; memory is a
	// no-op). Best-effort: failures become events, not commit failures.
	p.maintainBackend(projectID, s.eng)
	rc.Duration = time.Since(start)
	p.record(Event{Kind: "fixpoint", Project: projectID, Round: seq,
		Message: fmt.Sprintf("%d answers (%d skipped), %d pending requests, %s",
			rc.Answers, rc.Skipped, rc.Pending.Len(), rc.Duration.Round(time.Microsecond))})
	return rc, nil
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
