// Package webui is the Crowd4U platform's HTML front end: the dashboard, the
// project administration page with its constraint-entry form (Figure 3),
// worker pages showing human factors and the eligible-task list (Figure 4),
// and the form-based task UI used during collaboration (Figure 5), which
// lists a task's suggested team. The dashboard's POST /admin/cycle runs one
// deployment cycle of Figure 1 with an attached simulated crowd. JSON
// clients use the service API, internal/api, which serves the projects and
// the event stream under /api/v1 and mounts this UI on every other path.
//
// The server is deliberately framework-free (net/http + html/template) and
// holds no state of its own: every request reads and writes the platform.
package webui

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// Server serves the Crowd4U web UI for one platform instance.
type Server struct {
	Platform *platform.Platform
	// Crowd, when non-nil, is the simulated crowd the dashboard's cycle
	// action (POST /admin/cycle) runs deployment cycles with. Without one the
	// action answers 412, and workers declare interest and answer tasks
	// through the worker and task pages.
	Crowd platform.Crowd

	mux  *http.ServeMux
	tmpl *template.Template
}

// NewServer builds the HTTP handler around a platform.
func NewServer(p *platform.Platform, crowd platform.Crowd) *Server {
	s := &Server{Platform: p, Crowd: crowd}
	s.tmpl = template.Must(template.New("ui").Parse(pageTemplates))
	mux := http.NewServeMux()

	mux.HandleFunc("GET /", s.handleDashboard)
	mux.HandleFunc("POST /admin/cycle", s.handleCycle)
	mux.HandleFunc("GET /admin/projects", s.handleProjectList)
	mux.HandleFunc("GET /admin/projects/new", s.handleProjectForm)
	mux.HandleFunc("POST /admin/projects", s.handleProjectCreate)
	mux.HandleFunc("GET /admin/projects/{id}", s.handleProjectAdmin)
	mux.HandleFunc("POST /admin/projects/{id}/factors", s.handleProjectFactors)
	mux.HandleFunc("GET /workers/{id}", s.handleWorkerPage)
	mux.HandleFunc("POST /workers/{id}/factors", s.handleWorkerFactors)
	mux.HandleFunc("POST /workers/{id}/interest", s.handleWorkerInterest)
	mux.HandleFunc("GET /tasks/{id}", s.handleTaskPage)
	mux.HandleFunc("POST /tasks/{id}/answer", s.handleTaskAnswer)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) renderError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

func (s *Server) render(w http.ResponseWriter, name string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tmpl.ExecuteTemplate(w, name, data); err != nil {
		s.renderError(w, http.StatusInternalServerError, "template error: %v", err)
	}
}

// ---- HTML pages -----------------------------------------------------------

type dashboardData struct {
	Projects   int
	Workers    int
	Tasks      int
	TaskCounts map[string]int
	Events     []platform.Event
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		s.renderError(w, http.StatusNotFound, "not found")
		return
	}
	events := s.Platform.Events()
	if len(events) > 20 {
		events = events[len(events)-20:]
	}
	s.render(w, "dashboard", dashboardData{
		Projects:   s.Platform.Projects.Count(),
		Workers:    s.Platform.Workers.Count(),
		Tasks:      s.Platform.Tasks.Len(),
		TaskCounts: s.Platform.Tasks.Counts(),
		Events:     events,
	})
}

// handleCycle runs one deployment cycle of Figure 1 for every active
// project with the attached crowd — task generation from the CyLog
// programs, team assignment and collaborative execution — and redirects to
// the dashboard, whose task counts and recent events show the outcome.
func (s *Server) handleCycle(w http.ResponseWriter, r *http.Request) {
	if s.Crowd == nil {
		s.renderError(w, http.StatusPreconditionFailed, "no crowd attached; workers answer through the worker and task pages")
		return
	}
	if _, err := s.Platform.RunCycle(s.Crowd); err != nil {
		s.renderError(w, http.StatusInternalServerError, "cycle failed: %v", err)
		return
	}
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) handleProjectList(w http.ResponseWriter, _ *http.Request) {
	s.render(w, "projects", s.Platform.Projects.All())
}

func (s *Server) handleProjectForm(w http.ResponseWriter, _ *http.Request) {
	s.render(w, "projectForm", nil)
}

// handleProjectCreate accepts the requester's project registration form and
// registers the project. JSON clients register through the service API
// (POST /api/v1/projects).
func (s *Server) handleProjectCreate(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		s.renderError(w, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	admin, err := s.Platform.RegisterProject(project.Description{
		Name:        r.FormValue("name"),
		Requester:   r.FormValue("requester"),
		Summary:     r.FormValue("summary"),
		Scheme:      task.CollaborationScheme(r.FormValue("scheme")),
		CyLogSource: r.FormValue("cylog"),
		Factors:     parseFactorsForm(r),
	})
	if err != nil {
		s.renderError(w, http.StatusBadRequest, "cannot register project: %v", err)
		return
	}
	http.Redirect(w, r, "/admin/projects/"+string(admin.Description.ID), http.StatusSeeOther)
}

// parseFactorsForm reads the constraint-entry form of Figure 3.
func parseFactorsForm(r *http.Request) project.DesiredFactors {
	f := project.DesiredFactors{}
	c := &f.Constraints
	c.RequiredSkill = r.FormValue("required_skill")
	c.MinSkill = parseFloat(r.FormValue("min_skill"))
	c.MinTeamSkill = parseFloat(r.FormValue("min_team_skill"))
	c.RequireNativeLanguage = r.FormValue("native_language")
	if langs := strings.TrimSpace(r.FormValue("languages")); langs != "" {
		for _, l := range strings.Split(langs, ",") {
			if l = strings.TrimSpace(l); l != "" {
				c.RequiredLanguages = append(c.RequiredLanguages, l)
			}
		}
	}
	c.RequireLogin = r.FormValue("require_login") == "on" || r.FormValue("require_login") == "true"
	c.Region = r.FormValue("region")
	c.UpperCriticalMass = parseInt(r.FormValue("critical_mass"))
	c.MinTeamSize = parseInt(r.FormValue("min_team_size"))
	c.CostBudget = parseFloat(r.FormValue("cost_budget"))
	c.MinPairAffinity = parseFloat(r.FormValue("min_pair_affinity"))
	if mins := parseInt(r.FormValue("recruitment_minutes")); mins > 0 {
		f.RecruitmentWindow = time.Duration(mins) * time.Minute
	}
	f.AssignmentAlgorithm = r.FormValue("algorithm")
	return f
}

func parseFloat(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return v
}

func parseInt(s string) int {
	v, _ := strconv.Atoi(strings.TrimSpace(s))
	return v
}

type projectAdminData struct {
	Admin   *project.Admin
	Tasks   []*task.Task
	Notices []project.Notice
}

func (s *Server) handleProjectAdmin(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	admin, ok := s.Platform.Projects.Get(id)
	if !ok {
		s.renderError(w, http.StatusNotFound, "unknown project %s", id)
		return
	}
	s.render(w, "projectAdmin", projectAdminData{
		Admin:   admin,
		Tasks:   s.Platform.Tasks.ByProject(string(id)),
		Notices: s.Platform.Projects.Notices(id),
	})
}

// handleProjectFactors is the POST target of the Figure 3 constraint form:
// the requester enters the desired human factors, which are sent to the task
// assignment controller via the project registry.
func (s *Server) handleProjectFactors(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	if err := r.ParseForm(); err != nil {
		s.renderError(w, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	factors := parseFactorsForm(r)
	if _, err := s.Platform.Projects.UpdateFactors(id, factors); err != nil {
		s.renderError(w, http.StatusBadRequest, "cannot update factors: %v", err)
		return
	}
	if factors.AssignmentAlgorithm != "" {
		if err := s.Platform.SetAssignmentAlgorithm(factors.AssignmentAlgorithm); err != nil {
			s.renderError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	http.Redirect(w, r, "/admin/projects/"+string(id), http.StatusSeeOther)
}

type workerPageData struct {
	Worker        *worker.Worker
	EligibleTasks []*task.Task
	Interested    map[task.ID]bool
	Undertaken    []string
}

// handleWorkerPage renders the worker's human factors (Figure 4) and the list
// of tasks they are eligible for, with interest buttons (Figure 2 step 3).
func (s *Server) handleWorkerPage(w http.ResponseWriter, r *http.Request) {
	id := worker.ID(r.PathValue("id"))
	wk, ok := s.Platform.Workers.Get(id)
	if !ok {
		s.renderError(w, http.StatusNotFound, "unknown worker %s", id)
		return
	}
	data := workerPageData{Worker: wk, Interested: make(map[task.ID]bool)}
	for _, tid := range s.Platform.Workers.TasksWith(worker.Eligible, id) {
		if t, ok := s.Platform.Tasks.Get(task.ID(tid)); ok && t.State() == task.StateOpen {
			data.EligibleTasks = append(data.EligibleTasks, t)
			data.Interested[t.ID] = s.Platform.Workers.HasRelationship(worker.InterestedIn, tid, id)
		}
	}
	data.Undertaken = s.Platform.Workers.TasksWith(worker.Undertakes, id)
	s.render(w, "workerPage", data)
}

// handleWorkerFactors lets a worker update their human factors (Figure 4).
func (s *Server) handleWorkerFactors(w http.ResponseWriter, r *http.Request) {
	id := worker.ID(r.PathValue("id"))
	wk, ok := s.Platform.Workers.Get(id)
	if !ok {
		s.renderError(w, http.StatusNotFound, "unknown worker %s", id)
		return
	}
	if err := r.ParseForm(); err != nil {
		s.renderError(w, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	f := wk.Factors
	if v := r.FormValue("native_languages"); v != "" {
		f.NativeLanguages = splitCSV(v)
	}
	if v := r.FormValue("other_languages"); v != "" {
		f.OtherLanguages = splitCSV(v)
	}
	if v := r.FormValue("region"); v != "" {
		f.Location.Region = v
	}
	if v := r.FormValue("skills"); v != "" {
		// "translation=0.8,journalism=0.5"
		if f.Skills == nil {
			f.Skills = map[string]float64{}
		}
		for _, pair := range strings.Split(v, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if ok {
				f.Skills[strings.TrimSpace(name)] = parseFloat(val)
			}
		}
	}
	if err := s.Platform.Workers.UpdateFactors(id, f); err != nil {
		s.renderError(w, http.StatusBadRequest, "cannot update factors: %v", err)
		return
	}
	if sns := r.FormValue("sns_id"); sns != "" {
		s.Platform.Workers.SetSNSID(id, sns) //nolint:errcheck // worker existence checked above
	}
	http.Redirect(w, r, "/workers/"+string(id), http.StatusSeeOther)
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// handleWorkerInterest records that the worker is interested in a task.
func (s *Server) handleWorkerInterest(w http.ResponseWriter, r *http.Request) {
	id := worker.ID(r.PathValue("id"))
	if err := r.ParseForm(); err != nil {
		s.renderError(w, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	taskID := r.FormValue("task")
	if taskID == "" {
		s.renderError(w, http.StatusBadRequest, "missing task parameter")
		return
	}
	if !s.Platform.Workers.HasRelationship(worker.Eligible, taskID, id) {
		s.renderError(w, http.StatusForbidden, "worker %s is not eligible for task %s", id, taskID)
		return
	}
	if err := s.Platform.Workers.SetRelationship(worker.InterestedIn, taskID, id); err != nil {
		s.renderError(w, http.StatusBadRequest, "%v", err)
		return
	}
	http.Redirect(w, r, "/workers/"+string(id), http.StatusSeeOther)
}

type taskPageData struct {
	Task    *task.Task
	Team    []worker.ID
	HasTeam bool
	Result  *task.Result
}

// handleTaskPage renders the form-based task UI for a task (Figure 5 shows
// its simultaneous-collaboration variant).
func (s *Server) handleTaskPage(w http.ResponseWriter, r *http.Request) {
	id := task.ID(r.PathValue("id"))
	t, ok := s.Platform.Tasks.Get(id)
	if !ok {
		s.renderError(w, http.StatusNotFound, "unknown task %s", id)
		return
	}
	data := taskPageData{Task: t, Result: t.Result()}
	if team, ok := s.Platform.Controller.Suggestion(id); ok {
		data.Team = team.Members
		data.HasTeam = true
	}
	s.render(w, "taskPage", data)
}

// handleTaskAnswer accepts a worker's form answer for an individual task and
// submits it through Platform.SubmitResult, which stages an answer to a
// CyLog-generated task for its open request and commits it before the task
// completes (collaborative tasks are completed through their coordination
// schemes instead). An answer the engine rejects gets 400 and leaves the task
// open, a task already closed 409, and a failed commit 500.
func (s *Server) handleTaskAnswer(w http.ResponseWriter, r *http.Request) {
	id := task.ID(r.PathValue("id"))
	t, ok := s.Platform.Tasks.Get(id)
	if !ok {
		s.renderError(w, http.StatusNotFound, "unknown task %s", id)
		return
	}
	if err := r.ParseForm(); err != nil {
		s.renderError(w, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	workerID := r.FormValue("worker")
	if workerID == "" {
		s.renderError(w, http.StatusBadRequest, "missing worker parameter")
		return
	}
	answer := map[string]string{}
	for _, field := range t.Form.Fields {
		if v := r.FormValue(field.Name); v != "" {
			answer[field.Name] = v
		}
	}
	if err := t.Form.Validate(answer); err != nil {
		s.renderError(w, http.StatusBadRequest, "%v", err)
		return
	}
	result := &task.Result{SubmittedBy: workerID, Fields: answer, Quality: 1}
	if err := s.Platform.SubmitResult(id, result); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, platform.ErrAnswerRejected):
			status = http.StatusBadRequest
		case errors.Is(err, task.ErrClosed):
			status = http.StatusConflict
		}
		s.renderError(w, status, "%v", err)
		return
	}
	http.Redirect(w, r, "/tasks/"+string(id), http.StatusSeeOther)
}
