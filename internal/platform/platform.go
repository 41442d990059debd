// Package platform implements the Crowd4U orchestrator: it wires the CyLog
// processor, the project manager, the worker manager, the task pool and the
// task assignment controller together (Figure 2) and drives the deployment
// process of Figure 1 — task decomposition (CyLog rules generate the
// micro-tasks), task assignment and task completion with result
// coordination.
//
// The package is deliberately free of any web or simulation concerns: the web
// UI (internal/webui) and the simulated crowd (internal/crowdsim) plug into it
// through small interfaces.
package platform

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/assign"
	"github.com/crowd4u/crowd4u-go/internal/collab"
	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// InterestProvider models step 3 of Figure 2: workers see the tasks they are
// eligible for on their user pages and declare interest in some of them.
type InterestProvider interface {
	DeclareInterest(taskID task.ID, eligible []worker.ID) []worker.ID
}

// AcceptanceModel decides whether a suggested team member actually undertakes
// the task before the deadline.
type AcceptanceModel interface {
	WillUndertake(id worker.ID, taskID task.ID) bool
}

// Event is one platform-level occurrence kept in the audit log and pushed to
// every Subscribe sink (the API layer streams them over WebSocket).
type Event struct {
	At      time.Time
	Kind    string // "project-registered", "task-generated", "task-assigned", "task-completed", "infeasible", "reassigned", "fixpoint", "commit-error", "wal-*", "cylog-answer-*"
	Project project.ID
	Task    task.ID
	// Round is the answer-round sequence number for round-scoped events
	// ("fixpoint", "cylog-answer-skipped"); zero otherwise.
	Round   uint64
	Message string
}

// Platform is the Crowd4U system instance.
type Platform struct {
	Workers    *worker.Manager
	Tasks      *task.Pool
	Projects   *project.Registry
	Controller *assign.Controller

	mu sync.Mutex
	// served holds the record of every project with a CyLog engine: the
	// engine, its answer round and its WAL (see service.go). CommitRound —
	// reached directly by the API layer or through GenerateTasksFromCyLog —
	// commits a round via RunIncremental, so a whole round of crowd answers
	// costs one delta-seeded fixpoint instead of a full re-run per answer.
	served map[project.ID]*servedProject
	// requestTask maps a CyLog open-request id to the task generated for it,
	// and taskRequest the reverse, so results can be fed back into the engine.
	requestTask map[string]task.ID
	taskRequest map[task.ID]requestRef
	// events is the retained event log, a ring of at most eventLogCapacity
	// events whose oldest entry sits at eventsHead once it is full;
	// eventsDropped counts the events overwritten since.
	events        []Event
	eventsHead    int
	eventsDropped uint64
	// infeasibleTasks counts the "infeasible" events recorded, which
	// CycleReport reports whether or not the log still retains them.
	infeasibleTasks int
	nowFn           func() time.Time
	// storage selects the relstore backend new project engines are built on
	// (see storage.go); projects may override it per-description.
	storage StorageOptions
	// subs are the event sinks registered by Subscribe, keyed by a token the
	// cancel closure deletes.
	subs    map[int]func(Event)
	nextSub int
	// staged holds at most one signal that work was left for CommitRound
	// (see Staged).
	staged chan struct{}
}

type requestRef struct {
	project project.ID
	request cylog.OpenRequest
}

// New creates an empty platform.
func New() *Platform {
	workers := worker.NewManager()
	pool := task.NewPool()
	return &Platform{
		Workers:     workers,
		Tasks:       pool,
		Projects:    project.NewRegistry(),
		Controller:  assign.NewController(workers, pool),
		served:      make(map[project.ID]*servedProject),
		requestTask: make(map[string]task.ID),
		taskRequest: make(map[task.ID]requestRef),
		nowFn:       time.Now,
		storage:     DefaultStorageFromEnv(),
		staged:      make(chan struct{}, 1),
	}
}

// SetClock overrides the time source (tests and deterministic experiments).
func (p *Platform) SetClock(now func() time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nowFn = now
	p.Projects.SetClock(now)
	p.Workers.SetClock(now)
	p.Controller.SetClock(now)
}

func (p *Platform) now() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nowFn()
}

// eventLogCapacity bounds the event log Events returns. A served project
// records a "fixpoint" event per commit (and a "wal-append" when durable), so
// a log that kept every event would grow for as long as the process serves;
// past the capacity the oldest event is overwritten. Subscribe sinks see
// every event regardless.
const eventLogCapacity = 4096

func (p *Platform) record(e Event) {
	p.mu.Lock()
	e.At = p.nowFn()
	if len(p.events) < eventLogCapacity {
		p.events = append(p.events, e)
	} else {
		p.events[p.eventsHead] = e
		p.eventsHead = (p.eventsHead + 1) % eventLogCapacity
		p.eventsDropped++
	}
	sinks := make([]func(Event), 0, len(p.subs))
	for _, fn := range p.subs {
		sinks = append(sinks, fn)
	}
	p.mu.Unlock()
	// Sinks run outside the lock so they may inspect the platform, but they
	// must not record events of their own (Subscribe documents this).
	for _, fn := range sinks {
		fn(e)
	}
}

// Record appends an externally observed event to the platform's event log
// (stamping the time) and fans it out to every Subscribe sink. The service
// layer uses it for operational failures — e.g. "commit-error" when a
// background round commit fails — so they reach both the log read by Events
// and every live subscriber, not just one or the other.
func (p *Platform) Record(e Event) { p.record(e) }

// Events returns a copy of the retained event log, oldest first: the last
// eventLogCapacity events recorded (EventsDropped counts the older ones).
func (p *Platform) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]Event(nil), p.events[p.eventsHead:]...)
	return append(out, p.events[:p.eventsHead]...)
}

// EventsDropped reports how many recorded events the log no longer retains.
func (p *Platform) EventsDropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eventsDropped
}

// Engine returns the CyLog engine of a project (nil when the project has no
// CyLog description).
func (p *Platform) Engine(id project.ID) *cylog.Engine {
	if s := p.lookup(id); s != nil {
		return s.eng
	}
	return nil
}

// RegisterProject validates and registers a project description; when the
// project has a CyLog source, its engine is created, its program facts
// loaded and its record opened at round 1 (step 1 of Figure 2: "for each
// submitted project description, an administration page for the project is
// generated").
func (p *Platform) RegisterProject(d project.Description) (*project.Admin, error) {
	admin, err := p.Projects.Register(d)
	if err != nil {
		return nil, err
	}
	id := admin.Description.ID
	if d.CyLogSource != "" {
		prog, err := cylog.Parse(d.CyLogSource)
		if err != nil {
			return nil, err
		}
		db, err := p.newDatabaseFor(id, admin.Description.Storage)
		if err != nil {
			return nil, err
		}
		eng, err := cylog.NewEngineWith(prog, db)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.served[id] = &servedProject{id: id, eng: eng, seq: 1}
		p.mu.Unlock()
	}
	p.record(Event{Kind: "project-registered", Project: id, Message: admin.Description.Name})
	return admin, nil
}

// SetAssignmentAlgorithm selects the team-formation algorithm used by the
// assignment controller (the project admin form can request one by name).
func (p *Platform) SetAssignmentAlgorithm(name string) error {
	algo := assign.Registry(name)
	if algo == nil {
		return fmt.Errorf("platform: unknown assignment algorithm %q", name)
	}
	p.Controller.SetAlgorithm(algo)
	return nil
}

// AddTask registers a single ready-made task for the project.
func (p *Platform) AddTask(projectID project.ID, t *task.Task) error {
	if _, ok := p.Projects.Get(projectID); !ok {
		return fmt.Errorf("%w: %s", project.ErrUnknownProject, projectID)
	}
	if t.ID == "" {
		t.ID = p.Tasks.NextID("task")
	}
	t.ProjectID = string(projectID)
	return p.registerTask(projectID, t)
}

func (p *Platform) registerTask(projectID project.ID, t *task.Task) error {
	if err := p.Tasks.Register(t); err != nil {
		return err
	}
	p.ComputeEligibility(t)
	p.record(Event{Kind: "task-generated", Project: projectID, Task: t.ID, Message: t.Title})
	return nil
}

// GenerateTasksFromCyLog commits the answer batch the last task-pool round
// staged (if any), re-derives consequences through the engine's delta-seeded
// incremental fixpoint, and converts every pending open request into a task
// in the pool ("the rules describing tasks and their dependency are
// interpreted and executed by the CyLog processor, which dynamically
// generates and registers tasks into the task pool"). It returns the newly
// generated tasks. Requests withdrawn by the engine's retraction machinery
// simply stop appearing here; their already-generated tasks age out through
// the normal deadline sweep.
func (p *Platform) GenerateTasksFromCyLog(projectID project.ID) ([]*task.Task, error) {
	admin, ok := p.Projects.Get(projectID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", project.ErrUnknownProject, projectID)
	}
	// CommitRound is the shared commit path with the HTTP ingress: batch
	// application, incremental fixpoint, the WAL durability barrier (answers
	// are persisted before any task derived from them is generated) and the
	// round-stamped "fixpoint" event.
	rc, err := p.CommitRound(projectID)
	if err != nil {
		return nil, err
	}
	now := p.now()
	prog := p.Engine(projectID).Analysis().Program
	var created []*task.Task
	for _, req := range rc.Pending.All() {
		p.mu.Lock()
		prior, exists := p.requestTask[req.ID]
		p.mu.Unlock()
		if exists {
			if tk, live := p.Tasks.Get(prior); live && !tk.State().Terminal() {
				continue
			}
			// The request is pending but its task can no longer deliver an
			// answer — expired, cancelled, or completed without closing the
			// request (e.g. the request was withdrawn by retraction, its
			// answer skipped, and the guard later returned and re-issued it).
			// Drop the stale mapping and generate a fresh task.
			p.mu.Lock()
			delete(p.requestTask, req.ID)
			delete(p.taskRequest, prior)
			p.mu.Unlock()
		}
		scheme := task.CollaborationScheme(req.Scheme)
		if scheme == "" {
			scheme = task.Individual
		}
		t := task.NewTask(p.Tasks.NextID("cylog"), string(projectID), taskTitleFor(req), scheme, admin.TaskConstraints(now))
		t.GeneratedBy = "cylog:" + req.ID
		t.Description = req.Prompt
		t.Form = formFor(prog.DeclarationFor(req.Relation), req)
		for i, col := range req.KeyColumns {
			t.Input[col] = req.KeyValues[i].AsString()
		}
		if err := p.registerTask(projectID, t); err != nil {
			return created, err
		}
		p.mu.Lock()
		p.requestTask[req.ID] = t.ID
		p.taskRequest[t.ID] = requestRef{project: projectID, request: req}
		p.mu.Unlock()
		created = append(created, t)
	}
	return created, nil
}

func taskTitleFor(req cylog.OpenRequest) string {
	if req.Prompt != "" {
		return req.Prompt
	}
	return "Provide " + req.Relation
}

// formFor builds the form-based task UI for an open request of the open
// relation decl declares: one field per open column, by the column's
// declared type — a yes/no select for a bool, a number field for an int or a
// float, and a text area for a string.
func formFor(decl *cylog.Declaration, req cylog.OpenRequest) task.Form {
	var fields []task.Field
	for _, col := range req.OpenColumns {
		f := task.Field{Name: col, Label: col, Kind: task.FieldTextArea, Required: true}
		switch columnType(decl, col) {
		case relstore.TypeBool:
			f.Kind, f.Options = task.FieldSelect, []string{"yes", "no"}
		case relstore.TypeInt, relstore.TypeFloat:
			f.Kind = task.FieldNumber
		}
		fields = append(fields, f)
	}
	return task.Form{Fields: fields}
}

// columnType returns the declared type of decl's column col.
func columnType(decl *cylog.Declaration, col string) relstore.Type {
	return decl.Columns[decl.ColumnIndex(col)].Type
}

// ComputeEligibility evaluates the task's constraint-derived eligibility rule
// over all registered workers and records the Eligible relationship — the
// platform-side realisation of "this is computed by the CyLog processor using
// the project description and worker human factors".
func (p *Platform) ComputeEligibility(t *task.Task) []worker.ID {
	return p.Workers.ComputeEligibility(string(t.ID), EligibilityRule(t.Constraints))
}

// EligibilityRule compiles task constraints into a worker predicate.
func EligibilityRule(c task.Constraints) worker.EligibilityRule {
	return func(w *worker.Worker) bool {
		if c.RequireLogin && !w.LoggedIn {
			return false
		}
		if c.RequireNativeLanguage != "" && !w.Factors.SpeaksNatively(c.RequireNativeLanguage) {
			return false
		}
		for _, lang := range c.RequiredLanguages {
			if !w.Factors.Speaks(lang) {
				return false
			}
		}
		if c.Region != "" && !strings.EqualFold(w.Factors.Location.Region, c.Region) {
			return false
		}
		if c.RequiredSkill != "" && w.Factors.Skill(c.RequiredSkill) < c.MinSkill {
			return false
		}
		return true
	}
}

// CollectInterest shows every open task to its eligible workers through the
// interest provider and records the declared interest. It returns the number
// of (task, worker) interest pairs recorded.
func (p *Platform) CollectInterest(provider InterestProvider) int {
	total := 0
	for _, t := range p.Tasks.InState(task.StateOpen) {
		eligible := p.Workers.WorkersWith(worker.Eligible, string(t.ID))
		total += len(provider.DeclareInterest(t.ID, eligible))
	}
	return total
}

// AssignOpenTasks runs the assignment controller over every open task.
// Infeasible tasks produce an "action-required" notice on the project admin
// page, implementing "if none of the possible teams satisfying human factors
// accepts the task, Crowd4U suggests to the requester to update her input."
func (p *Platform) AssignOpenTasks() map[task.ID]assign.Team {
	out := make(map[task.ID]assign.Team)
	for _, t := range p.Tasks.InState(task.StateOpen) {
		team, ok, err := p.Controller.TryAssign(t)
		switch {
		case err != nil && errors.Is(err, assign.ErrInfeasible):
			p.Projects.Notify(project.ID(t.ProjectID), "action-required",
				fmt.Sprintf("task %s: no feasible team for the requested human factors; please relax the constraints", t.ID)) //nolint:errcheck
			p.record(Event{Kind: "infeasible", Project: project.ID(t.ProjectID), Task: t.ID})
			p.mu.Lock()
			p.infeasibleTasks++
			p.mu.Unlock()
		case ok:
			out[t.ID] = team
			p.record(Event{Kind: "task-assigned", Project: project.ID(t.ProjectID), Task: t.ID,
				Message: fmt.Sprintf("team of %d, affinity %.3f", team.Size(), team.Affinity)})
		}
	}
	return out
}

// ConfirmTeams asks every member of every suggested team whether they
// undertake the task. Teams where some member declines are re-assigned
// immediately; teams where everyone accepts move to in-progress. It returns
// the tasks that became in-progress.
func (p *Platform) ConfirmTeams(acceptance AcceptanceModel) []*task.Task {
	var started []*task.Task
	for _, t := range p.Tasks.InState(task.StateAssigned) {
		team, ok := p.Controller.Suggestion(t.ID)
		if !ok {
			continue
		}
		allAccept := true
		for _, m := range team.Members {
			if acceptance != nil && !acceptance.WillUndertake(m, t.ID) {
				allAccept = false
				break
			}
		}
		if !allAccept {
			p.record(Event{Kind: "reassigned", Project: project.ID(t.ProjectID), Task: t.ID})
			p.Controller.Reassign(t) //nolint:errcheck // failure recorded by controller events
			continue
		}
		for _, m := range team.Members {
			if _, err := p.Controller.ConfirmUndertake(t, m); err != nil {
				allAccept = false
				break
			}
		}
		if allAccept && t.State() == task.StateInProgress {
			started = append(started, t)
		}
	}
	return started
}

// ExecuteInProgress runs the appropriate collaboration scheme for every
// in-progress task using the given WorkerIO, records the team result,
// updates worker skill estimates, and feeds CyLog-generated answers back to
// the project's engine. It returns the completed tasks.
func (p *Platform) ExecuteInProgress(io collab.WorkerIO) ([]*task.Task, error) {
	var completed []*task.Task
	for _, t := range p.Tasks.InState(task.StateInProgress) {
		team, ok := p.Controller.Suggestion(t.ID)
		if !ok {
			continue
		}
		if ctx, hasCtx := io.(interface {
			SetTeamContext(task.ID, float64)
		}); hasCtx {
			ctx.SetTeamContext(t.ID, team.Affinity)
		}
		scheme := collab.ForTask(t)
		outcome, err := scheme.Run(t, team.Members, io)
		if err != nil {
			return completed, fmt.Errorf("platform: executing task %s: %w", t.ID, err)
		}
		if err := t.Complete(outcome.Result); err != nil {
			return completed, err
		}
		// Skill learning: each member's estimate is updated with the team
		// outcome quality for the task's required skill.
		skill := t.Constraints.RequiredSkill
		if skill == "" {
			skill = string(t.Scheme)
		}
		for _, m := range team.Members {
			p.Workers.RecordCompletion(m, skill, outcome.Quality()) //nolint:errcheck // unknown workers cannot be on a team
		}
		p.Workers.ClearTask(string(t.ID))
		if err := p.feedResultToCyLog(t, outcome.Result); err != nil {
			return completed, err
		}
		p.record(Event{Kind: "task-completed", Project: project.ID(t.ProjectID), Task: t.ID,
			Message: fmt.Sprintf("quality %.2f by %s", outcome.Quality(), outcome.Result.TeamID)})
		completed = append(completed, t)
	}
	return completed, nil
}

// ErrAnswerRejected reports a task result the project's CyLog engine refused
// to stage for the request that generated the task: a value the relation's
// schema rejects, a missing open column, or a request id the engine never
// issued. The error it wraps says which.
var ErrAnswerRejected = errors.New("platform: answer rejected")

// feedResultToCyLog stages the completed task's answer — for the open request
// that generated it, if any — into the project's current answer round
// through StageAnswer, the one way an answer enters an engine. The next
// CommitRound (GenerateTasksFromCyLog's, SubmitResult's or the API
// deriver's) commits the round through RunIncremental, so a whole round of
// crowd answers is ingested as one delta-seeded fixpoint.
//
// Only requests that legitimately no longer accept an answer — already
// answered through another path, withdrawn by retraction, or answered twice
// within the round — are skipped (and recorded as "cylog-answer-skipped");
// any other rejection (schema/type mismatch, missing open column, an id the
// engine never issued) is recorded as "cylog-answer-error" and returned to
// the caller as ErrAnswerRejected instead of being silently swallowed.
func (p *Platform) feedResultToCyLog(t *task.Task, result *task.Result) error {
	p.mu.Lock()
	ref, ok := p.taskRequest[t.ID]
	s := p.served[ref.project]
	p.mu.Unlock()
	if !ok || s == nil || result == nil {
		return nil
	}
	answer := answerFields(s.eng.Analysis().Program.DeclarationFor(ref.request.Relation), ref.request, result)
	// StageAnswer retries into the next round if the current one commits
	// underneath us (a concurrent GenerateTasksFromCyLog or API CommitRound),
	// so the worker's answer is never dropped.
	_, err := p.StageAnswer(ref.project, ref.request.ID, answer)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, cylog.ErrRequestClosed), errors.Is(err, cylog.ErrDuplicateAnswer):
		p.record(Event{Kind: "cylog-answer-skipped", Project: ref.project, Task: t.ID, Message: err.Error()})
		return nil
	default:
		p.record(Event{Kind: "cylog-answer-error", Project: ref.project, Task: t.ID, Message: err.Error()})
		return fmt.Errorf("%w: task %s: %w", ErrAnswerRejected, t.ID, err)
	}
}

// SubmitResult completes a task with a single out-of-band result (e.g. a
// worker's form submission). When the task was generated from a CyLog open
// request, the answer is staged through feedResultToCyLog before the task is
// completed, so an answer the engine rejects (ErrAnswerRejected) leaves the
// task open; the project's round is then committed, so SubmitResult returns
// only once the answer is derived and, with a WAL attached, durable. (When a
// concurrent commit detached the round first, CommitRound waits for that
// commit on the project's commit lock.) Closed or withdrawn requests are
// skipped as in the batched path. A task that is already completed, expired
// or cancelled fails with task.ErrClosed.
func (p *Platform) SubmitResult(taskID task.ID, result *task.Result) error {
	t, ok := p.Tasks.Get(taskID)
	if !ok {
		return fmt.Errorf("platform: unknown task %s", taskID)
	}
	// Checked before staging too, so that a submission to an expired task
	// whose request is still pending stages nothing.
	if st := t.State(); st.Terminal() {
		return fmt.Errorf("%w: task %s is %s", task.ErrClosed, taskID, st)
	}
	if err := p.feedResultToCyLog(t, result); err != nil {
		return err
	}
	if err := t.Complete(result); err != nil {
		return err
	}
	p.record(Event{Kind: "task-completed", Project: project.ID(t.ProjectID), Task: taskID,
		Message: "single submission by " + result.SubmittedBy})
	p.mu.Lock()
	ref, mapped := p.taskRequest[taskID]
	p.mu.Unlock()
	if !mapped {
		return nil
	}
	_, err := p.CommitRound(ref.project)
	return err
}

// answerFields maps a task result onto the open columns of the request that
// generated the task (decl declares its relation), falling back to the
// generic "text" field and converting each answer by its column's declared
// type.
func answerFields(decl *cylog.Declaration, req cylog.OpenRequest, result *task.Result) map[string]any {
	answer := make(map[string]any, len(req.OpenColumns))
	for _, col := range req.OpenColumns {
		raw, present := result.Fields[col]
		if !present {
			raw = result.Fields["text"]
		}
		answer[col] = convertAnswer(columnType(decl, col), raw)
	}
	return answer
}

// convertAnswer maps a form answer string onto a Go value for an open column
// of the declared type. A bool column reads yes or true, in any case, as true
// and any other answer as false: the form's yes/no select, or the free text
// of a team's result, which the collaboration schemes record under "text".
// Every other answer stays the raw string, which the schema's Coerce parses
// into an int or a float column, or rejects, and stores as is in a string
// column.
func convertAnswer(typ relstore.Type, raw string) any {
	if typ == relstore.TypeBool {
		lower := strings.ToLower(strings.TrimSpace(raw))
		return lower == "yes" || lower == "true"
	}
	return raw
}

// SweepDeadlines re-executes assignment for assigned tasks whose recruitment
// deadline has passed and marks overdue open tasks expired.
func (p *Platform) SweepDeadlines() (reassigned []task.ID, expired []*task.Task) {
	now := p.now()
	reassigned = p.Controller.SweepDeadlines(now)
	expired = p.Tasks.ExpireOverdue(now)
	return reassigned, expired
}

// CycleReport summarises one full deployment cycle. InfeasibleTasks counts
// the infeasible assignment attempts since the platform started, this
// cycle's included.
type CycleReport struct {
	GeneratedTasks  int
	InterestPairs   int
	AssignedTasks   int
	InfeasibleTasks int
	StartedTasks    int
	CompletedTasks  int
	MeanQuality     float64
	MeanTeamSize    float64
	MeanAffinity    float64
}

// Crowd bundles the three capabilities a simulated (or real) crowd must offer
// to drive a full cycle.
type Crowd interface {
	InterestProvider
	AcceptanceModel
	collab.WorkerIO
}

// RunCycle performs one full deployment cycle of Figure 1 for every active
// project: CyLog task generation, eligibility, interest collection, team
// assignment, undertake confirmation, collaborative execution and result
// recording. Repeated calls converge as CyLog programs stop generating new
// requests.
func (p *Platform) RunCycle(crowd Crowd) (CycleReport, error) {
	report := CycleReport{}
	for _, admin := range p.Projects.All() {
		if admin.Status != project.StatusActive {
			continue
		}
		if p.Engine(admin.Description.ID) == nil {
			continue
		}
		created, err := p.GenerateTasksFromCyLog(admin.Description.ID)
		if err != nil {
			return report, err
		}
		report.GeneratedTasks += len(created)
	}

	report.InterestPairs = p.CollectInterest(crowd)

	teams := p.AssignOpenTasks()
	report.AssignedTasks = len(teams)
	var affinities, sizes []float64
	for _, team := range teams {
		affinities = append(affinities, team.Affinity)
		sizes = append(sizes, float64(team.Size()))
	}
	report.MeanAffinity = mean(affinities)
	report.MeanTeamSize = mean(sizes)

	started := p.ConfirmTeams(crowd)
	report.StartedTasks = len(started)

	completed, err := p.ExecuteInProgress(crowd)
	if err != nil {
		return report, err
	}
	report.CompletedTasks = len(completed)
	var qualities []float64
	for _, t := range completed {
		if r := t.Result(); r != nil {
			qualities = append(qualities, r.Quality)
		}
	}
	report.MeanQuality = mean(qualities)

	p.mu.Lock()
	report.InfeasibleTasks = p.infeasibleTasks
	p.mu.Unlock()
	return report, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
