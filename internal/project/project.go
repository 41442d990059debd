// Package project implements Crowd4U's project manager (Figure 2): requesters
// register projects — a declarative CyLog description plus the desired human
// factors entered on the project administration page (Figure 3) — and the
// platform generates an admin page, interprets the CyLog rules, and drives
// task generation and assignment for the project.
package project

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/task"
)

// ID identifies a project.
type ID string

// Status is the lifecycle status of a project.
type Status string

// Project statuses.
const (
	StatusDraft    Status = "draft"
	StatusActive   Status = "active"
	StatusPaused   Status = "paused"
	StatusFinished Status = "finished"
)

// DesiredFactors is what the requester enters in the constraint form of the
// project administration page (Figure 3): the human factors a team must
// satisfy and the recruitment expiration.
type DesiredFactors struct {
	// Constraints maps directly onto task constraints applied to every task
	// the project generates (individual tasks may override).
	Constraints task.Constraints
	// RecruitmentWindow is how long after task creation the recruitment
	// deadline is set (0 = no deadline). The paper's admin form lets the
	// requester "specify an expiration time for worker recruitment".
	RecruitmentWindow time.Duration
	// AssignmentAlgorithm optionally names the team-formation algorithm to
	// use ("greedy", "exact", "grasp", "star", ...); empty = platform default.
	AssignmentAlgorithm string
}

// Description is a requester-submitted project.
type Description struct {
	ID        ID
	Name      string
	Requester string
	// Summary is shown to workers on their user pages.
	Summary string
	// CyLogSource is the declarative description of the project's data flow;
	// it may be empty for projects driven purely by explicit task templates.
	CyLogSource string
	// Scheme is the default collaboration scheme for the project's tasks.
	Scheme task.CollaborationScheme
	// Factors are the requester's desired human factors.
	Factors DesiredFactors
	// TaskForm is the default form presented to workers for project tasks.
	TaskForm task.Form
	// Storage overrides the platform-wide relstore backend for this
	// project's engine: "" (platform default), "memory" or "disk".
	Storage string
	// CreatedAt is when the project was registered.
	CreatedAt time.Time
}

// Validate checks that the description is registrable: a name, a valid
// scheme, sane constraints and — when CyLog source is present — a program
// that parses and analyses cleanly.
func (d *Description) Validate() error {
	var errs []string
	if strings.TrimSpace(d.Name) == "" {
		errs = append(errs, "project name is required")
	}
	if d.Scheme != "" && !d.Scheme.Valid() {
		errs = append(errs, fmt.Sprintf("unknown collaboration scheme %q", d.Scheme))
	}
	c := d.Factors.Constraints
	if c.MinTeamSize < 0 || c.UpperCriticalMass < 0 {
		errs = append(errs, "team size bounds must be non-negative")
	}
	if c.MinSkill < 0 || c.MinSkill > 1 {
		errs = append(errs, "minimum skill must be in [0,1]")
	}
	if c.MinPairAffinity < 0 || c.MinPairAffinity > 1 {
		errs = append(errs, "minimum pair affinity must be in [0,1]")
	}
	if c.CostBudget < 0 {
		errs = append(errs, "cost budget must be non-negative")
	}
	if d.Factors.RecruitmentWindow < 0 {
		errs = append(errs, "recruitment window must be non-negative")
	}
	switch d.Storage {
	case "", "memory", "disk":
	default:
		errs = append(errs, fmt.Sprintf("unknown storage backend %q (want memory or disk)", d.Storage))
	}
	if d.CyLogSource != "" {
		prog, err := cylog.Parse(d.CyLogSource)
		if err != nil {
			errs = append(errs, fmt.Sprintf("CyLog source does not parse: %v", err))
		} else if _, err := cylog.Analyze(prog); err != nil {
			errs = append(errs, fmt.Sprintf("CyLog source does not analyse: %v", err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("project: invalid description: %s", strings.Join(errs, "; "))
	}
	return nil
}

// Admin is the registered project together with its administrative state —
// the model behind the project administration page.
type Admin struct {
	Description Description
	Status      Status
	// Notices holds messages for the requester, e.g. the suggestion to relax
	// constraints when no feasible team exists (§2.2.1).
	Notices []Notice
	// RegisteredAt is when the project was accepted by the registry.
	RegisteredAt time.Time
}

// Notice is one message for the project's requester.
type Notice struct {
	At      time.Time
	Level   string // "info", "warning", "action-required"
	Message string
}

// ErrUnknownProject is returned for operations on unregistered project ids.
var ErrUnknownProject = errors.New("project: unknown project")

// Registry stores registered projects. It is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	projects map[ID]*Admin
	nextID   int
	nowFn    func() time.Time
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{projects: make(map[ID]*Admin), nowFn: time.Now}
}

// SetClock overrides the time source for tests.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nowFn = now
}

// Register validates and stores a project description, assigning an id when
// the description has none, and returns the admin record. New projects start
// in StatusActive: registering a project immediately generates its admin page
// and makes its tasks available for interest (Figure 2, step 1).
func (r *Registry) Register(d Description) (*Admin, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.ID == "" {
		r.nextID++
		d.ID = ID(fmt.Sprintf("project-%04d", r.nextID))
	}
	if _, dup := r.projects[d.ID]; dup {
		return nil, fmt.Errorf("project: project %s already registered", d.ID)
	}
	if d.CreatedAt.IsZero() {
		d.CreatedAt = r.nowFn()
	}
	if d.Scheme == "" {
		d.Scheme = task.Sequential
	}
	d.Factors.Constraints = d.Factors.Constraints.Normalize()
	a := &Admin{Description: d, Status: StatusActive, RegisteredAt: r.nowFn()}
	r.projects[d.ID] = a
	return cloneAdmin(a), nil
}

// Get returns a copy of the project admin record.
func (r *Registry) Get(id ID) (*Admin, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.projects[id]
	if !ok {
		return nil, false
	}
	return cloneAdmin(a), true
}

// All returns copies of all projects sorted by id.
func (r *Registry) All() []*Admin {
	r.mu.RLock()
	out := make([]*Admin, 0, len(r.projects))
	for _, a := range r.projects {
		out = append(out, cloneAdmin(a))
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Description.ID < out[j].Description.ID })
	return out
}

// Count returns the number of registered projects.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.projects)
}

// SetStatus transitions a project's status.
func (r *Registry) SetStatus(id ID, s Status) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.projects[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProject, id)
	}
	a.Status = s
	return nil
}

// UpdateFactors replaces the project's desired human factors (the requester
// edited the constraint form) and returns the updated admin record.
func (r *Registry) UpdateFactors(id ID, f DesiredFactors) (*Admin, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.projects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProject, id)
	}
	d := a.Description
	d.Factors = f
	d.Factors.Constraints = d.Factors.Constraints.Normalize()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	a.Description = d
	return cloneAdmin(a), nil
}

// Notify appends a notice to the project's admin page.
func (r *Registry) Notify(id ID, level, message string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.projects[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProject, id)
	}
	a.Notices = append(a.Notices, Notice{At: r.nowFn(), Level: level, Message: message})
	return nil
}

// Notices returns a copy of the project's notices.
func (r *Registry) Notices(id ID) []Notice {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.projects[id]
	if !ok {
		return nil
	}
	return append([]Notice(nil), a.Notices...)
}

func cloneAdmin(a *Admin) *Admin {
	c := *a
	c.Notices = append([]Notice(nil), a.Notices...)
	c.Description.TaskForm = a.Description.TaskForm.Clone()
	return &c
}

// TaskConstraints derives the constraints for a new task of the project:
// the project's desired factors plus a recruitment deadline computed from the
// recruitment window.
func (a *Admin) TaskConstraints(now time.Time) task.Constraints {
	c := a.Description.Factors.Constraints.Normalize()
	if w := a.Description.Factors.RecruitmentWindow; w > 0 {
		c.RecruitmentDeadline = now.Add(w)
	}
	return c
}
