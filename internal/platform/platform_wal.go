package platform

import (
	"fmt"

	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/wal"
)

// Durable answer log wiring. A project with an attached WAL journals every
// ingestion its engine applies (AddFact seeds and committed answer rounds)
// and the platform persists the journal in CommitRound, the one commit
// point, before the round is acknowledged: before GenerateTasksFromCyLog
// hands out the tasks derived from it and before SubmitResult acknowledges
// the submission it covers. Operations leave the journal only once they are
// appended, so a round whose append fails is appended by the next commit
// that succeeds. Crashing between rounds therefore loses at most answers the
// WAL never acknowledged, and recovery re-issues exactly the requests those
// answers would have closed.

// walBinding is a project's attached log plus its snapshot cadence.
type walBinding struct {
	log *wal.Log
	// snapshotEvery triggers a snapshot (and obsolete-state truncation)
	// after that many appended records; 0 disables periodic snapshots.
	snapshotEvery int
	appends       int // records appended since the last snapshot
}

// AttachWAL attaches an opened write-ahead log to the project and starts
// journaling its engine's ingestion. snapshotEvery > 0 writes a snapshot and
// truncates obsolete log state every that-many appended records. Attach
// before ingesting anything that must be durable; for an existing log
// directory use RecoverProject instead, which replays first.
func (p *Platform) AttachWAL(projectID project.ID, log *wal.Log, snapshotEvery int) error {
	s := p.lookup(projectID)
	if s == nil {
		return fmt.Errorf("platform: project %s has no CyLog engine to attach a WAL to", projectID)
	}
	p.mu.Lock()
	s.wal = &walBinding{log: log, snapshotEvery: snapshotEvery}
	p.mu.Unlock()
	s.eng.SetJournaling(true)
	return nil
}

// RecoverProject rebuilds the project's engine from the log directory —
// newest valid snapshot plus replayed log suffix — then attaches the log so
// subsequent rounds keep appending where the crashed process stopped. The
// project must be freshly registered (its engine holds only the program's own
// facts). The recovery outcome lands in the event log as "wal-recovered".
func (p *Platform) RecoverProject(projectID project.ID, log *wal.Log, snapshotEvery int) (wal.RecoveryStats, error) {
	eng := p.Engine(projectID)
	if eng == nil {
		return wal.RecoveryStats{}, fmt.Errorf("platform: project %s has no CyLog engine to recover", projectID)
	}
	stats, err := log.Recover(eng)
	if err != nil {
		p.record(Event{Kind: "wal-error", Project: projectID, Message: "recovery: " + err.Error()})
		return stats, err
	}
	p.record(Event{Kind: "wal-recovered", Project: projectID,
		Message: fmt.Sprintf("snapshot seq %d (%d relations), %d records / %d ops replayed (%d applied), %d pending requests",
			stats.SnapshotSeq, stats.SnapshotRelations, stats.RecordsReplayed, stats.OpsReplayed, stats.OpsApplied, stats.PendingRequests)})
	if err := p.AttachWAL(projectID, log, snapshotEvery); err != nil {
		return stats, err
	}
	return stats, nil
}

// WALStats returns the attached log's activity counters and whether the
// project has a WAL attached.
func (p *Platform) WALStats(projectID project.ID) (wal.Stats, bool) {
	p.mu.Lock()
	var wb *walBinding
	if s := p.served[projectID]; s != nil {
		wb = s.wal
	}
	p.mu.Unlock()
	if wb == nil {
		return wal.Stats{}, false
	}
	return wb.log.Stats(), true
}

// persistRound appends the engine's ingestion journal to the project's WAL
// as one record, snapshotting (and truncating obsolete state) when the
// cadence is due. It is called at every commit point before the round's
// outcome is acknowledged; with no WAL attached it is a no-op. An append or
// snapshot failure is returned — the commit must fail loudly rather than ack
// answers that were never made durable.
//
// The appended operations are trimmed from the journal only after the
// append succeeds, and only they: an AddFact may journal more while the
// append runs, without any lock held. A failed append leaves its operations
// for the next commit, which appends them ahead of its own.
func (p *Platform) persistRound(s *servedProject) error {
	p.mu.Lock()
	wb := s.wal
	p.mu.Unlock()
	if wb == nil {
		return nil
	}
	if ops := s.eng.Journal(); len(ops) > 0 {
		seq, err := wb.log.Append(ops)
		if err != nil {
			p.record(Event{Kind: "wal-error", Project: s.id, Message: "append: " + err.Error()})
			return fmt.Errorf("platform: persisting round for %s: %w", s.id, err)
		}
		s.eng.TrimJournal(len(ops))
		p.record(Event{Kind: "wal-append", Project: s.id,
			Message: fmt.Sprintf("record %d: %d ops", seq, len(ops))})
		p.mu.Lock()
		wb.appends++
		p.mu.Unlock()
	}
	p.mu.Lock()
	due := wb.snapshotEvery > 0 && wb.appends >= wb.snapshotEvery
	p.mu.Unlock()
	if due {
		seq, err := wb.log.Snapshot(s.eng)
		if err != nil {
			p.record(Event{Kind: "wal-error", Project: s.id, Message: "snapshot: " + err.Error()})
			return fmt.Errorf("platform: snapshotting %s: %w", s.id, err)
		}
		if err := wb.log.TruncateObsolete(); err != nil {
			p.record(Event{Kind: "wal-error", Project: s.id, Message: "truncate: " + err.Error()})
			return fmt.Errorf("platform: truncating %s: %w", s.id, err)
		}
		p.mu.Lock()
		wb.appends = 0
		p.mu.Unlock()
		p.record(Event{Kind: "wal-snapshot", Project: s.id,
			Message: fmt.Sprintf("snapshot covers seq %d", seq)})
	}
	return nil
}

// SubmitResultBatched completes a task like SubmitResult but does not commit
// the round it stages the answer into: the answer commits — and becomes
// durable — with the rest of the round at the next CommitRound (the next
// GenerateTasksFromCyLog, for one). It is the out-of-band twin of the
// collaborative execution path, for callers that collect submissions between
// rounds.
func (p *Platform) SubmitResultBatched(taskID task.ID, result *task.Result) error {
	t, ok := p.Tasks.Get(taskID)
	if !ok {
		return fmt.Errorf("platform: unknown task %s", taskID)
	}
	if err := t.Complete(result); err != nil {
		return err
	}
	p.record(Event{Kind: "task-completed", Project: project.ID(t.ProjectID), Task: taskID,
		Message: "batched submission by " + result.SubmittedBy})
	return p.feedResultToCyLog(t, result)
}
