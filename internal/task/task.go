// Package task defines Crowd4U tasks and micro-tasks, the task pool the CyLog
// processor registers tasks into (Figure 2), task states and deadlines, and
// the form schema backing the form-based task UI. Task decomposition (Figure
// 1, first step) is left to CyLog rules, which generate the micro-tasks.
package task

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ID identifies a task.
type ID string

// CollaborationScheme names the worker-collaboration / result-coordination
// scheme a task uses (§2.3).
type CollaborationScheme string

// The three schemes the paper implements.
const (
	// Sequential: members improve each other's contributions through
	// dynamically generated follow-up tasks (e.g. translate → check).
	Sequential CollaborationScheme = "sequential"
	// Simultaneous: members work in parallel on a shared artefact after
	// exchanging contact (SNS) ids; one member submits the team result.
	Simultaneous CollaborationScheme = "simultaneous"
	// Hybrid: an interleaving of sequential and simultaneous stages in one
	// complex dataflow (e.g. surveillance facts sequentially corrected while
	// testimonials arrive simultaneously).
	Hybrid CollaborationScheme = "hybrid"
	// Individual: a classic single-worker micro-task (Crowd4U's original
	// mode); used for dynamically generated sub-steps such as a check task.
	Individual CollaborationScheme = "individual"
)

// Valid reports whether the scheme is one of the defined constants.
func (s CollaborationScheme) Valid() bool {
	switch s {
	case Sequential, Simultaneous, Hybrid, Individual:
		return true
	}
	return false
}

// State is the lifecycle state of a task in the pool.
type State int

// Task lifecycle states.
const (
	// StateOpen: registered, recruiting interested workers.
	StateOpen State = iota
	// StateAssigned: a team has been suggested and members asked to join.
	StateAssigned
	// StateInProgress: all suggested members undertook the task.
	StateInProgress
	// StateCompleted: a result has been recorded.
	StateCompleted
	// StateExpired: the recruitment deadline passed without a full team.
	StateExpired
	// StateCancelled: withdrawn by the requester.
	StateCancelled
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateAssigned:
		return "assigned"
	case StateInProgress:
		return "in_progress"
	case StateCompleted:
		return "completed"
	case StateExpired:
		return "expired"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateExpired || s == StateCancelled
}

// Constraints are the requester-specified desired human factors entered on the
// project administration page (Figure 3) plus the structural limits the
// assignment algorithm enforces (§2.2).
type Constraints struct {
	// RequiredSkill names the skill the task needs (empty = none).
	RequiredSkill string
	// MinSkill is the minimum per-worker proficiency in RequiredSkill.
	MinSkill float64
	// MinTeamSkill is the minimum aggregate (sum) team skill — the task's
	// quality requirement.
	MinTeamSkill float64
	// RequiredLanguages lists languages every team member must speak.
	RequiredLanguages []string
	// RequireNativeLanguage, when non-empty, restricts eligibility to native
	// speakers of this language.
	RequireNativeLanguage string
	// RequireLogin restricts eligibility to logged-in workers.
	RequireLogin bool
	// Region, when non-empty, restricts eligibility to workers in this region.
	Region string
	// UpperCriticalMass is the maximum team size beyond which collaboration
	// effectiveness diminishes; 0 means "no limit" but the platform defaults
	// it to DefaultCriticalMass at registration.
	UpperCriticalMass int
	// MinTeamSize is the smallest acceptable team (default 1).
	MinTeamSize int
	// CostBudget caps the sum of member wages; 0 means unconstrained.
	CostBudget float64
	// MinPairAffinity, when > 0, requires every pair in the team to have at
	// least this affinity.
	MinPairAffinity float64
	// RecruitmentDeadline: unless all suggested workers undertake the task by
	// this time, assignment is re-executed with a new team (§2.2.1).
	RecruitmentDeadline time.Time
	// InterestThreshold is how many interested workers the controller waits
	// for before attempting to build a team (0 = MinTeamSize).
	InterestThreshold int
}

// DefaultCriticalMass is applied when a requester does not bound team size.
const DefaultCriticalMass = 5

// Normalize fills defaults so downstream code can rely on sane values.
func (c Constraints) Normalize() Constraints {
	if c.UpperCriticalMass <= 0 {
		c.UpperCriticalMass = DefaultCriticalMass
	}
	if c.MinTeamSize <= 0 {
		c.MinTeamSize = 1
	}
	if c.MinTeamSize > c.UpperCriticalMass {
		c.MinTeamSize = c.UpperCriticalMass
	}
	if c.InterestThreshold < c.MinTeamSize {
		c.InterestThreshold = c.MinTeamSize
	}
	return c
}

// Task is a unit of work registered in the task pool: a micro-task the CyLog
// processor generated from an open request, or a ready-made task a requester
// registered.
type Task struct {
	ID          ID
	ProjectID   string
	Title       string
	Description string
	Scheme      CollaborationScheme
	Constraints Constraints
	// Form describes the input form shown to workers (form-based task UI).
	Form Form
	// Input carries task-specific payload (e.g. the sentence to translate,
	// the topic to report on, the region/time cell to surveil).
	Input map[string]string
	// GeneratedBy records which rule or coordination step created the task
	// dynamically ("" for requester-registered tasks).
	GeneratedBy string
	// CreatedAt is when the task entered the pool.
	CreatedAt time.Time

	state  State
	result *Result
	mu     sync.RWMutex
}

// Result is the recorded outcome of a task: produced by one worker for
// individual/sequential steps, or by a whole team for simultaneous tasks
// (submitted by one member, recorded as the team's).
type Result struct {
	TaskID      ID
	TeamID      string
	SubmittedBy string
	Fields      map[string]string
	Quality     float64
	SubmittedAt time.Time
}

// NewTask creates an open task with normalized constraints.
func NewTask(id ID, projectID, title string, scheme CollaborationScheme, c Constraints) *Task {
	return &Task{
		ID:          id,
		ProjectID:   projectID,
		Title:       title,
		Scheme:      scheme,
		Constraints: c.Normalize(),
		Input:       make(map[string]string),
		CreatedAt:   time.Now(),
		state:       StateOpen,
	}
}

// State returns the current lifecycle state.
func (t *Task) State() State {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.state
}

// SetState transitions the task. Transitions out of a terminal state are
// rejected, as are unknown regressions (e.g. completed → open).
func (t *Task) SetState(s State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state.Terminal() && s != t.state {
		return fmt.Errorf("task %s: cannot leave terminal state %s", t.ID, t.state)
	}
	t.state = s
	return nil
}

// Result returns the recorded result, or nil.
func (t *Task) Result() *Result {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.result
}

// ErrClosed reports a result for a task that is already completed, expired or
// cancelled.
var ErrClosed = errors.New("task: already closed")

// Complete records the result and moves the task to StateCompleted; a task
// in a terminal state fails with ErrClosed.
func (t *Task) Complete(r *Result) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state.Terminal() {
		return fmt.Errorf("%w: task %s is %s", ErrClosed, t.ID, t.state)
	}
	if r == nil {
		return errors.New("task: nil result")
	}
	r.TaskID = t.ID
	if r.SubmittedAt.IsZero() {
		r.SubmittedAt = time.Now()
	}
	t.result = r
	t.state = StateCompleted
	return nil
}

// Expired reports whether the recruitment deadline has passed at time now.
func (t *Task) Expired(now time.Time) bool {
	d := t.Constraints.RecruitmentDeadline
	return !d.IsZero() && now.After(d)
}

// Clone returns a copy safe to hand out (result pointer is shared, it is
// immutable once recorded).
func (t *Task) Clone() *Task {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Task{
		ID: t.ID, ProjectID: t.ProjectID, Title: t.Title, Description: t.Description,
		Scheme: t.Scheme, Constraints: t.Constraints, Form: t.Form.Clone(),
		Input: make(map[string]string, len(t.Input)), GeneratedBy: t.GeneratedBy,
		CreatedAt: t.CreatedAt, state: t.state, result: t.result,
	}
	for k, v := range t.Input {
		c.Input[k] = v
	}
	return c
}

// String summarises the task.
func (t *Task) String() string {
	return fmt.Sprintf("task(%s %q %s %s)", t.ID, t.Title, t.Scheme, t.State())
}

// Pool is the task pool of Figure 2: the CyLog processor registers tasks into
// it, user pages read eligible tasks out of it, and the assignment controller
// transitions task states. All methods are safe for concurrent use.
type Pool struct {
	mu     sync.RWMutex
	tasks  map[ID]*Task
	nextID int
}

// NewPool creates an empty pool.
func NewPool() *Pool {
	return &Pool{tasks: make(map[ID]*Task)}
}

// NextID generates a fresh task id with the given prefix.
func (p *Pool) NextID(prefix string) ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	return ID(fmt.Sprintf("%s-%06d", prefix, p.nextID))
}

// Register adds a task to the pool. Registering a duplicate id fails.
func (p *Pool) Register(t *Task) error {
	if t == nil || t.ID == "" {
		return errors.New("task: cannot register task with empty id")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.tasks[t.ID]; dup {
		return fmt.Errorf("task: task %s already registered", t.ID)
	}
	p.tasks[t.ID] = t
	return nil
}

// Get returns the task with the given id.
func (p *Pool) Get(id ID) (*Task, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.tasks[id]
	return t, ok
}

// Remove deletes the task from the pool.
func (p *Pool) Remove(id ID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tasks[id]; !ok {
		return false
	}
	delete(p.tasks, id)
	return true
}

// Len returns the number of tasks in the pool.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.tasks)
}

// All returns the tasks sorted by id.
func (p *Pool) All() []*Task {
	p.mu.RLock()
	out := make([]*Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		out = append(out, t)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InState returns tasks currently in the given state, sorted by id.
func (p *Pool) InState(s State) []*Task {
	var out []*Task
	for _, t := range p.All() {
		if t.State() == s {
			out = append(out, t)
		}
	}
	return out
}

// ByProject returns the project's tasks sorted by id.
func (p *Pool) ByProject(projectID string) []*Task {
	var out []*Task
	for _, t := range p.All() {
		if t.ProjectID == projectID {
			out = append(out, t)
		}
	}
	return out
}

// ExpireOverdue marks every non-terminal task whose recruitment deadline has
// passed as expired and returns them; the platform re-runs assignment for
// these (§2.2.1).
func (p *Pool) ExpireOverdue(now time.Time) []*Task {
	var expired []*Task
	for _, t := range p.All() {
		st := t.State()
		if !st.Terminal() && st != StateInProgress && t.Expired(now) {
			if err := t.SetState(StateExpired); err == nil {
				expired = append(expired, t)
			}
		}
	}
	return expired
}

// Counts returns a map of state name to task count; used by dashboards.
func (p *Pool) Counts() map[string]int {
	out := make(map[string]int)
	for _, t := range p.All() {
		out[t.State().String()]++
	}
	return out
}
