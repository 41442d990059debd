package webui

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api"
	"github.com/crowd4u/crowd4u-go/internal/crowdsim"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

func newTestServer(t *testing.T) (*Server, *platform.Platform, *crowdsim.Crowd) {
	t.Helper()
	p := platform.New()
	p.SetClock(func() time.Time { return time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC) })
	cfg := crowdsim.DefaultConfig(11)
	cfg.InterestProbability = 1
	cfg.AcceptProbability = 1
	crowd := crowdsim.New(cfg, p.Workers)
	crowd.GeneratePopulation(crowdsim.DefaultPopulation(15))
	return NewServer(p, crowd), p, crowd
}

func get(t *testing.T, s http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func postForm(t *testing.T, s http.Handler, path string, form url.Values) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestDashboardAndNotFound(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Crowd4U") {
		t.Errorf("dashboard = %d %q", rec.Code, rec.Body.String()[:80])
	}
	if rec := get(t, s, "/definitely-not-here"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path = %d", rec.Code)
	}
}

// translationCyLog is a two-sentence subtitle translation program: workers
// translate each sentence, then check the translation (sequential
// collaboration).
const translationCyLog = `
rel sentence(sid: int, text: string).
open rel translated(sid: int, text: string) key(sid) asks "Translate this subtitle line into the target language" scheme "sequential".
open rel checked(sid: int, ok: bool) key(sid) asks "Is this translation faithful and fluent?".
rel pendingTranslation(sid: int).
rel pendingCheck(sid: int, text: string).
rel final(sid: int, text: string).

pendingTranslation(S) :- sentence(S, _), translated(S, _).
pendingCheck(S, T) :- translated(S, T), checked(S, _).
final(S, T) :- translated(S, T), checked(S, true).

sentence(1, "Welcome to the morning news.").
sentence(2, "The river crossed the flood line last night.").
`

// translationProject registers translationCyLog with translation-skilled,
// team-based factors.
func translationProject() project.Description {
	return project.Description{
		Name:        "Video subtitle translation",
		Requester:   "demo",
		Summary:     "Translate video subtitles; workers improve each other's contributions.",
		Scheme:      task.Sequential,
		CyLogSource: translationCyLog,
		Factors: project.DesiredFactors{
			Constraints: task.Constraints{
				RequiredSkill: "translation", MinSkill: 0.3,
				UpperCriticalMass: 3, MinTeamSize: 2,
			},
		},
	}
}

func TestProjectRegistrationForm(t *testing.T) {
	s, p, _ := newTestServer(t)
	if rec := get(t, s, "/admin/projects/new"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Desired human factors") {
		t.Errorf("project form = %d", rec.Code)
	}
	form := url.Values{
		"name":                {"Subtitle translation"},
		"requester":           {"mori"},
		"scheme":              {"sequential"},
		"cylog":               {translationCyLog},
		"required_skill":      {"translation"},
		"min_skill":           {"0.3"},
		"critical_mass":       {"3"},
		"min_team_size":       {"2"},
		"recruitment_minutes": {"60"},
		"require_login":       {"on"},
	}
	rec := postForm(t, s, "/admin/projects", form)
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("register project = %d %s", rec.Code, rec.Body.String())
	}
	loc := rec.Header().Get("Location")
	if !strings.HasPrefix(loc, "/admin/projects/project-") {
		t.Fatalf("redirect = %q", loc)
	}
	if p.Projects.Count() != 1 {
		t.Errorf("project count = %d", p.Projects.Count())
	}
	admins := p.Projects.All()
	c := admins[0].Description.Factors.Constraints
	if c.RequiredSkill != "translation" || c.UpperCriticalMass != 3 || c.MinTeamSize != 2 || !c.RequireLogin {
		t.Errorf("parsed constraints = %+v", c)
	}
	if admins[0].Description.Factors.RecruitmentWindow != time.Hour {
		t.Errorf("window = %v", admins[0].Description.Factors.RecruitmentWindow)
	}
	// Admin page renders with the constraint form and task list.
	rec = get(t, s, loc)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "constraint entry form") {
		t.Errorf("admin page = %d", rec.Code)
	}
	// Bad project is rejected.
	if rec := postForm(t, s, "/admin/projects", url.Values{"name": {""}}); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid project = %d", rec.Code)
	}
	// The page takes only its form: a JSON body (JSON clients register
	// through POST /api/v1/projects) is refused and registers nothing.
	for _, body := range []string{`{"Name":"json project","Scheme":"individual"}`, `{"Name":"x"} ]]] trailing garbage`} {
		req := httptest.NewRequest(http.MethodPost, "/admin/projects", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("json body %q = %d, want 400", body, rec.Code)
		}
	}
	if p.Projects.Count() != 1 {
		t.Errorf("project count after JSON bodies = %d, want 1", p.Projects.Count())
	}
	// Project list page.
	if rec := get(t, s, "/admin/projects"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Subtitle translation") {
		t.Errorf("project list = %d", rec.Code)
	}
	// Unknown admin page 404s.
	if rec := get(t, s, "/admin/projects/project-9999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown project = %d", rec.Code)
	}
}

func TestProjectFactorsUpdate(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, _ := p.RegisterProject(project.Description{Name: "x"})
	id := string(admin.Description.ID)
	rec := postForm(t, s, "/admin/projects/"+id+"/factors", url.Values{
		"critical_mass": {"6"}, "min_team_size": {"3"}, "algorithm": {"star"},
	})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("update factors = %d %s", rec.Code, rec.Body.String())
	}
	got, _ := p.Projects.Get(admin.Description.ID)
	if got.Description.Factors.Constraints.UpperCriticalMass != 6 {
		t.Errorf("constraints not updated: %+v", got.Description.Factors.Constraints)
	}
	if p.Controller.Algorithm().Name() != "star" {
		t.Error("algorithm not applied")
	}
	if rec := postForm(t, s, "/admin/projects/"+id+"/factors", url.Values{"algorithm": {"bogus"}}); rec.Code != http.StatusBadRequest {
		t.Errorf("bogus algorithm = %d", rec.Code)
	}
	if rec := postForm(t, s, "/admin/projects/zzz/factors", url.Values{}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown project factors = %d", rec.Code)
	}
}

func TestWorkerPageAndInterestFlow(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, _ := p.RegisterProject(translationProject())
	created, err := p.GenerateTasksFromCyLog(admin.Description.ID)
	if err != nil || len(created) == 0 {
		t.Fatalf("task generation failed: %v", err)
	}
	// Pick a worker who is eligible for the first task.
	eligible := p.Workers.WorkersWith(worker.Eligible, string(created[0].ID))
	if len(eligible) == 0 {
		t.Fatal("no eligible workers")
	}
	wid := string(eligible[0])

	rec := get(t, s, "/workers/"+wid)
	if rec.Code != http.StatusOK {
		t.Fatalf("worker page = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "Your human factors") || !strings.Contains(body, string(created[0].ID)) {
		t.Errorf("worker page should show factors and eligible tasks")
	}
	if rec := get(t, s, "/workers/ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown worker = %d", rec.Code)
	}

	// Declare interest.
	rec = postForm(t, s, "/workers/"+wid+"/interest", url.Values{"task": {string(created[0].ID)}})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("interest = %d %s", rec.Code, rec.Body.String())
	}
	if !p.Workers.HasRelationship(worker.InterestedIn, string(created[0].ID), worker.ID(wid)) {
		t.Error("interest not recorded")
	}
	// Missing task, ineligible worker, unknown task errors.
	if rec := postForm(t, s, "/workers/"+wid+"/interest", url.Values{}); rec.Code != http.StatusBadRequest {
		t.Errorf("missing task = %d", rec.Code)
	}
	if rec := postForm(t, s, "/workers/"+wid+"/interest", url.Values{"task": {"no-such-task"}}); rec.Code != http.StatusForbidden {
		t.Errorf("ineligible = %d", rec.Code)
	}

	// Update human factors (Figure 4).
	rec = postForm(t, s, "/workers/"+wid+"/factors", url.Values{
		"native_languages": {"ja, en"},
		"region":           {"tsukuba"},
		"skills":           {"translation=0.9, journalism=0.4"},
		"sns_id":           {wid + "@example"},
	})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("update factors = %d %s", rec.Code, rec.Body.String())
	}
	w, _ := p.Workers.Get(worker.ID(wid))
	if !w.Factors.SpeaksNatively("ja") || w.Factors.Skill("translation") != 0.9 || w.SNSID != wid+"@example" {
		t.Errorf("factors not updated: %+v", w.Factors)
	}
	if rec := postForm(t, s, "/workers/ghost/factors", url.Values{}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown worker factors = %d", rec.Code)
	}
}

func TestTaskPageAndAnswer(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, _ := p.RegisterProject(project.Description{Name: "simple", Scheme: task.Individual})
	tk := task.NewTask("", "", "Confirm this fact", task.Individual, task.Constraints{UpperCriticalMass: 1, MinTeamSize: 1})
	tk.Form = task.ConfirmForm("Is the road closed?")
	if err := p.AddTask(admin.Description.ID, tk); err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/tasks/"+string(tk.ID))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Task form") {
		t.Errorf("task page = %d", rec.Code)
	}
	if rec := get(t, s, "/tasks/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown task = %d", rec.Code)
	}
	// Invalid answer (bad select option).
	rec = postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"worker": {"sim-0001"}, "confirmed": {"maybe"}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid answer = %d", rec.Code)
	}
	// Missing worker.
	rec = postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"confirmed": {"yes"}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing worker = %d", rec.Code)
	}
	// Valid answer completes the task and the page then shows the result.
	rec = postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"worker": {"sim-0001"}, "confirmed": {"yes"}, "comment": {"saw it"}})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("answer = %d %s", rec.Code, rec.Body.String())
	}
	if tk.State() != task.StateCompleted {
		t.Errorf("task state = %v", tk.State())
	}
	rec = get(t, s, "/tasks/"+string(tk.ID))
	if !strings.Contains(rec.Body.String(), "Team result") {
		t.Error("completed task page should show the result")
	}
	// Answering twice conflicts.
	rec = postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"worker": {"sim-0002"}, "confirmed": {"no"}})
	if rec.Code != http.StatusConflict {
		t.Errorf("second answer = %d", rec.Code)
	}
	if rec := postForm(t, s, "/tasks/ghost/answer", url.Values{}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown task answer = %d", rec.Code)
	}
}

// TestCycleAction runs one deployment cycle from the dashboard's button,
// through the API server the UI is mounted under as in cmd/crowdserve: the
// translation project's two tasks are generated and completed, the
// dashboard and the task pages show them, and a task page lists its
// suggested team.
func TestCycleAction(t *testing.T) {
	ui, p, _ := newTestServer(t)
	srv := api.NewServer(p, api.Options{UI: ui})
	t.Cleanup(srv.Close)
	if _, err := p.RegisterProject(translationProject()); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, srv, "/"); !strings.Contains(rec.Body.String(), `action="/admin/cycle"`) {
		t.Fatalf("dashboard has no cycle button: %d %s", rec.Code, rec.Body.String())
	}
	rec := postForm(t, srv, "/admin/cycle", url.Values{})
	if rec.Code != http.StatusSeeOther || rec.Header().Get("Location") != "/" {
		t.Fatalf("cycle = %d (Location %q) %s, want 303 to the dashboard", rec.Code, rec.Header().Get("Location"), rec.Body.String())
	}
	completed := p.Tasks.InState(task.StateCompleted)
	if n := p.Tasks.Len(); n != 2 || len(completed) != 2 {
		t.Fatalf("after one cycle: %d tasks, %d completed; want 2 generated and completed", n, len(completed))
	}
	if rec := get(t, srv, "/"); !strings.Contains(rec.Body.String(), "task-completed") {
		t.Errorf("dashboard does not show the completions: %s", rec.Body.String())
	}
	rec = get(t, srv, "/tasks/"+string(completed[0].ID))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Suggested team") {
		t.Errorf("task page = %d, want the suggested team: %s", rec.Code, rec.Body.String())
	}
}

func TestCycleActionWithoutCrowd(t *testing.T) {
	p := platform.New()
	s := NewServer(p, nil)
	rec := postForm(t, s, "/admin/cycle", url.Values{})
	if rec.Code != http.StatusPreconditionFailed {
		t.Errorf("cycle without crowd = %d", rec.Code)
	}
}
