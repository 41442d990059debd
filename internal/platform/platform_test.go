package platform

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/assign"
	"github.com/crowd4u/crowd4u-go/internal/crowdsim"
	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// simCrowd adapts crowdsim.Crowd to the platform.Crowd interface (it already
// satisfies all three sub-interfaces; this alias is just for clarity).
type simCrowd = crowdsim.Crowd

func newPlatformWithCrowd(t *testing.T, n int) (*Platform, *simCrowd) {
	t.Helper()
	p := New()
	p.SetClock(func() time.Time { return time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC) })
	cfg := crowdsim.DefaultConfig(42)
	cfg.InterestProbability = 1.0 // deterministic full interest for platform tests
	cfg.AcceptProbability = 1.0
	crowd := crowdsim.New(cfg, p.Workers)
	crowd.GeneratePopulation(crowdsim.DefaultPopulation(n))
	return p, crowd
}

const translationCyLog = `
rel sentence(sid: int, text: string).
open rel translated(sid: int, text: string) key(sid) asks "Translate this subtitle line" scheme "sequential".
open rel checked(sid: int, ok: bool) key(sid) asks "Is the translation correct?".
rel needTranslation(sid: int).
rel needCheck(sid: int, text: string).
rel final(sid: int, text: string).

sentence(1, "Hello world").
sentence(2, "See you tomorrow").

needTranslation(S) :- sentence(S, _), translated(S, _).
needCheck(S, T) :- translated(S, T), checked(S, _).
final(S, T) :- translated(S, T), checked(S, true).
`

func translationProject() project.Description {
	return project.Description{
		Name:        "Subtitle translation",
		Requester:   "mori",
		Scheme:      task.Sequential,
		CyLogSource: translationCyLog,
		Factors: project.DesiredFactors{
			Constraints: task.Constraints{
				RequiredSkill: "translation", MinSkill: 0.3,
				UpperCriticalMass: 3, MinTeamSize: 2,
			},
			RecruitmentWindow: time.Hour,
		},
	}
}

func TestRegisterProjectCreatesEngine(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine(admin.Description.ID) == nil {
		t.Error("CyLog project should get an engine")
	}
	events := p.Events()
	if len(events) != 1 || events[0].Kind != "project-registered" {
		t.Errorf("events = %v", events)
	}
	// Project without CyLog has no engine.
	noCy, err := p.RegisterProject(project.Description{Name: "plain", Scheme: task.Individual})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine(noCy.Description.ID) != nil {
		t.Error("plain project should have no engine")
	}
	// Invalid CyLog is rejected.
	bad := translationProject()
	bad.CyLogSource = "rel broken("
	if _, err := p.RegisterProject(bad); err == nil {
		t.Error("invalid CyLog should be rejected")
	}
}

// TestEngineForResolvesWithoutCopies checks EngineFor's three outcomes and
// that resolving a project's engine, which every feed, answer and fact
// request does, copies no admin record.
func TestEngineForResolvesWithoutCopies(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 1)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.RegisterProject(project.Description{Name: "plain", Scheme: task.Individual})
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	if eng, err := p.EngineFor(id); err != nil || eng != p.Engine(id) {
		t.Fatalf("EngineFor(%s) = %p, %v; want the project's engine", id, eng, err)
	}
	if _, err := p.EngineFor(plain.Description.ID); !errors.Is(err, ErrNoEngine) {
		t.Errorf("EngineFor(plain) error = %v, want ErrNoEngine", err)
	}
	if _, err := p.EngineFor("missing"); !errors.Is(err, project.ErrUnknownProject) {
		t.Errorf("EngineFor(missing) error = %v, want ErrUnknownProject", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.EngineFor(id) }); allocs != 0 { //nolint:errcheck
		t.Errorf("EngineFor allocated %.0f times per call", allocs)
	}
}

func TestGenerateTasksFromCyLog(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(translationProject())
	created, err := p.GenerateTasksFromCyLog(admin.Description.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 {
		t.Fatalf("created %d tasks, want 2 (one per sentence)", len(created))
	}
	for _, tk := range created {
		if tk.Scheme != task.Sequential {
			t.Errorf("task scheme = %s", tk.Scheme)
		}
		if tk.Description != "Translate this subtitle line" {
			t.Errorf("task description = %q", tk.Description)
		}
		if tk.Input["sid"] == "" {
			t.Errorf("task should carry the key input: %v", tk.Input)
		}
		if len(tk.Form.Fields) != 1 || tk.Form.Fields[0].Name != "text" {
			t.Errorf("form = %+v", tk.Form)
		}
		if !tk.Constraints.RecruitmentDeadline.After(time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC)) {
			t.Error("recruitment deadline should come from the project window")
		}
		if !strings.HasPrefix(tk.GeneratedBy, "cylog:") {
			t.Errorf("GeneratedBy = %q", tk.GeneratedBy)
		}
	}
	// Re-generating does not duplicate tasks.
	again, err := p.GenerateTasksFromCyLog(admin.Description.ID)
	if err != nil || len(again) != 0 {
		t.Errorf("regeneration created %d tasks, err=%v", len(again), err)
	}
	// Eligibility was computed at registration time.
	eligible := p.Workers.WorkersWith(worker.Eligible, string(created[0].ID))
	if len(eligible) == 0 {
		t.Error("eligibility should be computed for generated tasks")
	}
	// Unknown project / project without CyLog fail.
	if _, err := p.GenerateTasksFromCyLog("nope"); err == nil {
		t.Error("unknown project should fail")
	}
	plain, _ := p.RegisterProject(project.Description{Name: "plain"})
	if _, err := p.GenerateTasksFromCyLog(plain.Description.ID); err == nil {
		t.Error("project without CyLog should fail")
	}
}

func TestEligibilityRule(t *testing.T) {
	rule := EligibilityRule(task.Constraints{
		RequireLogin:          true,
		RequireNativeLanguage: "ja",
		RequiredLanguages:     []string{"en"},
		Region:                "tsukuba",
		RequiredSkill:         "translation",
		MinSkill:              0.5,
	})
	ok := &worker.Worker{
		LoggedIn: true,
		Factors: worker.HumanFactors{
			NativeLanguages: []string{"ja"},
			OtherLanguages:  []string{"en"},
			Location:        worker.Location{Region: "Tsukuba"},
			Skills:          map[string]float64{"translation": 0.8},
		},
	}
	if !rule(ok) {
		t.Error("qualifying worker should be eligible")
	}
	cases := []func(*worker.Worker){
		func(w *worker.Worker) { w.LoggedIn = false },
		func(w *worker.Worker) { w.Factors.NativeLanguages = []string{"en"} },
		func(w *worker.Worker) { w.Factors.OtherLanguages = nil },
		func(w *worker.Worker) { w.Factors.Location.Region = "tokyo" },
		func(w *worker.Worker) { w.Factors.Skills["translation"] = 0.2 },
	}
	for i, mutate := range cases {
		w := ok.Clone()
		mutate(w)
		if rule(w) {
			t.Errorf("case %d: disqualified worker should not be eligible", i)
		}
	}
}

func TestAddTaskAndAssignmentAlgorithm(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(project.Description{Name: "simple"})
	tk := task.NewTask("", "", "single", task.Individual, task.Constraints{UpperCriticalMass: 1, MinTeamSize: 1})
	if err := p.AddTask(admin.Description.ID, tk); err != nil {
		t.Fatal(err)
	}
	if tk.ProjectID != string(admin.Description.ID) || tk.ID == "" {
		t.Errorf("task not normalised: %+v", tk)
	}
	if err := p.AddTask("nope", task.NewTask("", "", "x", task.Individual, task.Constraints{})); err == nil {
		t.Error("unknown project should fail")
	}
	if err := p.SetAssignmentAlgorithm("star"); err != nil {
		t.Fatal(err)
	}
	if p.Controller.Algorithm().Name() != "star" {
		t.Error("algorithm not set")
	}
	if err := p.SetAssignmentAlgorithm("bogus"); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestFullTranslationCycle(t *testing.T) {
	p, crowd := newPlatformWithCrowd(t, 20)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	// Run deployment cycles until one generates, assigns, starts and
	// completes nothing.
	var reports []CycleReport
	for len(reports) < 10 {
		r, err := p.RunCycle(crowd)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
		if r.GeneratedTasks == 0 && r.AssignedTasks == 0 && r.StartedTasks == 0 && r.CompletedTasks == 0 {
			break
		}
	}
	if len(reports) < 2 {
		t.Fatalf("expected at least 2 cycles (translate then check), got %d", len(reports))
	}
	first := reports[0]
	if first.GeneratedTasks != 2 || first.AssignedTasks != 2 || first.CompletedTasks != 2 {
		t.Errorf("first cycle = %+v", first)
	}
	if first.MeanTeamSize < 2 {
		t.Errorf("mean team size = %v, want >= 2", first.MeanTeamSize)
	}
	if first.MeanQuality <= 0 || first.MeanAffinity <= 0 {
		t.Errorf("first cycle quality/affinity = %+v", first)
	}

	// The CyLog program eventually derives final translations for both
	// sentences (translated + positively checked). The simulated checker says
	// yes ~always for skilled teams; assert the translated relation is full
	// and final has at least one row.
	eng := p.Engine(admin.Description.ID)
	if got := len(eng.Facts("translated")); got != 2 {
		t.Errorf("translated facts = %d", got)
	}
	if got := len(eng.Facts("checked")); got != 2 {
		t.Errorf("checked facts = %d", got)
	}
	completed := 0
	for _, tk := range p.Tasks.ByProject(string(admin.Description.ID)) {
		if tk.State() == task.StateCompleted && tk.Result() != nil {
			completed++
		}
	}
	if completed < 4 { // 2 translation tasks + 2 check tasks
		t.Errorf("completed tasks with results = %d", completed)
	}
	// Workers learned skills from completing tasks.
	learned := false
	for _, id := range p.Workers.IDs() {
		if p.Workers.Skills().Observations(id, "translation") > 0 {
			learned = true
			break
		}
	}
	if !learned {
		t.Error("completions should feed the skill estimator")
	}
	// Event log covers the lifecycle.
	kinds := map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []string{"project-registered", "task-generated", "task-assigned", "task-completed"} {
		if kinds[k] == 0 {
			t.Errorf("missing %s events: %v", k, kinds)
		}
	}
}

func TestInfeasibleConstraintsNotifyRequester(t *testing.T) {
	p, crowd := newPlatformWithCrowd(t, 10)
	d := translationProject()
	// Every worker stays eligible (low per-worker skill floor) but the team
	// quality target is unreachable within the critical mass, so assignment
	// is infeasible rather than merely waiting for interest.
	d.Factors.Constraints.MinSkill = 0.1
	d.Factors.Constraints.MinTeamSkill = 10
	admin, _ := p.RegisterProject(d)
	if _, err := p.RunCycle(crowd); err != nil {
		t.Fatal(err)
	}
	notices := p.Projects.Notices(admin.Description.ID)
	found := false
	for _, n := range notices {
		if n.Level == "action-required" && strings.Contains(n.Message, "relax") {
			found = true
		}
	}
	if !found {
		t.Errorf("requester should be asked to relax constraints, notices = %v", notices)
	}
}

// declineAll is an AcceptanceModel where every suggested member refuses to
// undertake the task.
type declineAll struct{}

func (declineAll) WillUndertake(worker.ID, task.ID) bool { return false }

func TestConfirmTeamsReassignsOnDecline(t *testing.T) {
	p, crowd := newPlatformWithCrowd(t, 20)
	admin, _ := p.RegisterProject(translationProject())
	p.GenerateTasksFromCyLog(admin.Description.ID)
	p.CollectInterest(crowd)
	teams := p.AssignOpenTasks()
	if len(teams) == 0 {
		t.Fatal("no teams assigned")
	}
	started := p.ConfirmTeams(declineAll{})
	if len(started) != 0 {
		t.Errorf("no task should start when everyone declines, got %d", len(started))
	}
	kinds := map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
	}
	if kinds["reassigned"] == 0 {
		t.Error("declines should trigger re-assignment")
	}
}

func TestSweepDeadlines(t *testing.T) {
	p, crowd := newPlatformWithCrowd(t, 20)
	now := time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC)
	p.SetClock(func() time.Time { return now })
	admin, _ := p.RegisterProject(translationProject())
	p.GenerateTasksFromCyLog(admin.Description.ID)
	p.CollectInterest(crowd)
	teams := p.AssignOpenTasks()
	if len(teams) == 0 {
		t.Fatal("no teams assigned")
	}
	// Advance past the 1h recruitment window without anyone undertaking.
	later := now.Add(2 * time.Hour)
	p.SetClock(func() time.Time { return later })
	reassigned, expired := p.SweepDeadlines()
	if len(reassigned) == 0 {
		t.Errorf("expired assignments should be re-executed, got %v (expired=%v)", reassigned, expired)
	}
}

func TestRunCycleSkipsPausedProjects(t *testing.T) {
	p, crowd := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(translationProject())
	p.Projects.SetStatus(admin.Description.ID, project.StatusPaused)
	report, err := p.RunCycle(crowd)
	if err != nil {
		t.Fatal(err)
	}
	if report.GeneratedTasks != 0 {
		t.Errorf("paused project should not generate tasks: %+v", report)
	}
}

func TestConvertAnswerAndForms(t *testing.T) {
	if convertAnswer(relstore.TypeBool, "yes") != true || convertAnswer(relstore.TypeBool, " No ") != false || convertAnswer(relstore.TypeBool, "TRUE") != true {
		t.Error("bool columns should convert yes/no and true/false")
	}
	if convertAnswer(relstore.TypeBool, "[draft by w1] Is it right?") != false {
		t.Error("a bool column should read a team's free text as false")
	}
	for _, typ := range []relstore.Type{relstore.TypeString, relstore.TypeInt, relstore.TypeFloat} {
		if convertAnswer(typ, "Yes") != "Yes" || convertAnswer(typ, "true") != "true" {
			t.Errorf("a %s column should get the raw answer", typ)
		}
	}
	if mean(nil) != 0 || mean([]float64{2, 4}) != 3 {
		t.Error("mean misbehaves")
	}
}

// TestFormFieldsFollowDeclaredTypes generates the task of an open relation
// with a column of every type: each field's kind follows the declared type,
// not the column's name, so the form itself rejects a word for a number.
func TestFormFieldsFollowDeclaredTypes(t *testing.T) {
	p := New()
	admin, err := p.RegisterProject(project.Description{Name: "reviews", CyLogSource: `
rel item(id: int).
open rel review(id: int, approved: bool, score: int, weight: float, ok: string) key(id) asks "Review this item".
rel reviewed(id: int).
item(1).
reviewed(I) :- item(I), review(I, _, _, _, _).
`})
	if err != nil {
		t.Fatal(err)
	}
	created, err := p.GenerateTasksFromCyLog(admin.Description.ID)
	if err != nil || len(created) != 1 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	form := created[0].Form
	kinds := make(map[string]task.FieldKind)
	for _, f := range form.Fields {
		kinds[f.Name] = f.Kind
	}
	want := map[string]task.FieldKind{"approved": task.FieldSelect, "score": task.FieldNumber, "weight": task.FieldNumber, "ok": task.FieldTextArea}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("field kinds = %v, want %v", kinds, want)
	}
	answer := map[string]string{"approved": "yes", "score": "five", "weight": "0.5", "ok": "fine"}
	if err := form.Validate(answer); err == nil || !strings.Contains(err.Error(), `"score"`) {
		t.Errorf("Validate(score five) = %v, want the number field rejected", err)
	}
	answer["score"] = "5"
	if err := form.Validate(answer); err != nil {
		t.Errorf("Validate(valid answer) = %v", err)
	}
}

// TestSubmitResultKeepsTextAnswers submits "Yes" as a translation: a string
// column stores the answer as written, and a bool column still reads it as
// a yes.
func TestSubmitResultKeepsTextAnswers(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(translationProject())
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(tk *task.Task) {
		t.Helper()
		if err := p.SubmitResult(tk.ID, &task.Result{SubmittedBy: "w1", Fields: map[string]string{"text": "Yes"}, Quality: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range created {
		if tk.GeneratedBy == "cylog:translated|1" {
			submit(tk)
		}
	}
	eng := p.Engine(id)
	if got := fmt.Sprint(eng.Facts("translated")); got != `[(1, "Yes")]` {
		t.Fatalf("translated = %s, want the answer as written", got)
	}
	next, err := p.GenerateTasksFromCyLog(id)
	if err != nil || len(next) != 1 {
		t.Fatalf("next = %v, err = %v", next, err)
	}
	submit(next[0])
	if got := fmt.Sprint(eng.Facts("final")); got != `[(1, "Yes")]` {
		t.Errorf("final = %s, want the check's yes to approve the translation", got)
	}
}

// TestBatchedAnswerRound pins the batch-aware crowd loop: a round of
// completed tasks stages its answers into one AnswerBatch (nothing reaches
// the engine yet), and the next GenerateTasksFromCyLog commits the whole
// round through one delta-seeded incremental fixpoint.
func TestBatchedAnswerRound(t *testing.T) {
	p, crowd := newPlatformWithCrowd(t, 20)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	if _, err := p.GenerateTasksFromCyLog(id); err != nil {
		t.Fatal(err)
	}
	p.CollectInterest(crowd)
	if teams := p.AssignOpenTasks(); len(teams) != 2 {
		t.Fatalf("assigned %d teams", len(teams))
	}
	p.ConfirmTeams(crowd)
	completed, err := p.ExecuteInProgress(crowd)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 2 {
		t.Fatalf("completed = %d tasks", len(completed))
	}
	eng := p.Engine(id)
	// The answers are staged, not ingested: the engine sees them only when
	// the next generation commits the round's batch.
	if got := len(eng.Facts("translated")); got != 0 {
		t.Fatalf("answers leaked into the engine before commit: translated = %d", got)
	}
	if got := len(eng.PendingRequests()); got != 2 {
		t.Fatalf("pending before commit = %d, want the 2 translation requests", got)
	}
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Facts("translated")); got != 2 {
		t.Fatalf("translated after commit = %d, want 2", got)
	}
	if len(created) != 2 { // the two follow-up check tasks
		t.Fatalf("follow-up tasks = %d, want 2", len(created))
	}
	if s := eng.Stats(); s.SeededDeltas != 2 {
		t.Errorf("commit should seed the batch's 2 answers as deltas, stats = %+v", s)
	}
}

// ratingCyLog asks for one int-typed answer, so a non-numeric value is one
// the engine rejects.
const ratingCyLog = `
rel item(sid: int).
open rel rating(sid: int, score: int) key(sid) asks "Rate this item".
rel rated(sid: int, score: int).
item(1).
rated(S, R) :- item(S), rating(S, R).
`

// TestFeedResultErrorSurfaced pins the error contract of the answer feed:
// benign rejections (request already closed) are skipped with an event, but
// a type-mismatched answer — a platform bug — is surfaced to the caller and
// the audit log instead of being swallowed as "skipped".
func TestFeedResultErrorSurfaced(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	d := translationProject()
	d.CyLogSource = ratingCyLog
	admin, err := p.RegisterProject(d)
	if err != nil {
		t.Fatal(err)
	}
	created, err := p.GenerateTasksFromCyLog(admin.Description.ID)
	if err != nil || len(created) != 1 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	tk := created[0]

	// Hard failure: the int column rejects a non-numeric answer.
	err = p.feedResultToCyLog(tk, &task.Result{Fields: map[string]string{"score": "not-a-number"}})
	if err == nil {
		t.Fatal("type-mismatched answer should surface an error")
	}
	kinds := map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
	}
	if kinds["cylog-answer-error"] != 1 {
		t.Errorf("expected a cylog-answer-error event, got %v", kinds)
	}

	// Benign: the request was closed out of band; the feed skips and logs.
	if err := p.Engine(admin.Description.ID).AnswerFact("rating", 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.feedResultToCyLog(tk, &task.Result{Fields: map[string]string{"score": "4"}}); err != nil {
		t.Fatalf("closed request should be skipped, got %v", err)
	}
	kinds = map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
	}
	if kinds["cylog-answer-skipped"] != 1 {
		t.Errorf("expected a cylog-answer-skipped event, got %v", kinds)
	}
}

// TestSubmitResultSingle covers a lone submission: the result completes the
// task, and its answer is staged and committed before SubmitResult returns,
// so the answer is derived and its follow-up request already pending.
func TestSubmitResultSingle(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(translationProject())
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil || len(created) != 2 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	if err := p.SubmitResult(created[0].ID, &task.Result{
		SubmittedBy: "w1", Fields: map[string]string{"text": "Bonjour"}, Quality: 1,
	}); err != nil {
		t.Fatal(err)
	}
	eng := p.Engine(id)
	if got := len(eng.Facts("translated")); got != 1 {
		t.Fatalf("translated = %d, want 1 (SubmitResult commits its round)", got)
	}
	// translated|2 and the check the answer derived, checked|1.
	var pending []string
	for _, r := range eng.PendingRequests() {
		pending = append(pending, r.ID)
	}
	if got := fmt.Sprint(pending); got != "[checked|1 translated|2]" {
		t.Fatalf("pending = %s, want [checked|1 translated|2]", got)
	}
	if created[0].State() != task.StateCompleted {
		t.Errorf("task state = %v", created[0].State())
	}
	if err := p.SubmitResult(created[0].ID, &task.Result{Fields: map[string]string{"text": "Salut"}}); !errors.Is(err, task.ErrClosed) {
		t.Errorf("second submission = %v, want task.ErrClosed", err)
	}
	if err := p.SubmitResult("nope", &task.Result{}); err == nil {
		t.Error("unknown task should fail")
	}
}

// pendingIDs lists the engine's pending request ids in ID order.
func pendingIDs(e *cylog.Engine) string {
	var ids []string
	for _, r := range e.PendingRequests() {
		ids = append(ids, r.ID)
	}
	return fmt.Sprint(ids)
}

// TestSubmitResultRejectedAnswerLeavesTaskOpen pins the order SubmitResult
// works in: the answer is staged before the task completes, so a value the
// column type rejects fails with ErrAnswerRejected, stages nothing and leaves
// the task open, and a valid answer sent afterwards completes it.
func TestSubmitResultRejectedAnswerLeavesTaskOpen(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	d := translationProject()
	d.CyLogSource = ratingCyLog
	admin, err := p.RegisterProject(d)
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil || len(created) != 1 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	tk := created[0]
	err = p.SubmitResult(tk.ID, &task.Result{SubmittedBy: "w1", Fields: map[string]string{"score": "five"}, Quality: 1})
	if !errors.Is(err, ErrAnswerRejected) {
		t.Fatalf("text for an int column = %v, want ErrAnswerRejected", err)
	}
	if tk.State() != task.StateOpen {
		t.Fatalf("rejected answer moved the task to %v", tk.State())
	}
	if n := p.StagedAnswers(id); n != 0 {
		t.Errorf("rejected answer left %d staged", n)
	}
	eng := p.Engine(id)
	if got := pendingIDs(eng); got != "[rating|1]" {
		t.Errorf("pending after a rejected answer = %s, want [rating|1]", got)
	}
	if err := p.SubmitResult(tk.ID, &task.Result{SubmittedBy: "w1", Fields: map[string]string{"score": "5"}, Quality: 1}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(eng.Facts("rated")); got != "[(1, 5)]" {
		t.Errorf("rated = %s, want [(1, 5)]", got)
	}
	if tk.State() != task.StateCompleted {
		t.Errorf("task state = %v", tk.State())
	}
	if got := pendingIDs(eng); got != "[]" {
		t.Errorf("pending after the valid answer = %s, want none", got)
	}
}

// TestSubmitResultToExpiredTaskStagesNothing submits to a task whose
// recruitment deadline passed while its request is still pending: the
// submission fails with task.ErrClosed before anything is staged, so the
// next commit derives nothing and the request stays pending.
func TestSubmitResultToExpiredTaskStagesNothing(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	now := time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC)
	p.SetClock(func() time.Time { return now })
	admin, _ := p.RegisterProject(translationProject())
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil || len(created) != 2 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	// Past the 1h recruitment window, with nobody assigned.
	p.SetClock(func() time.Time { return now.Add(2 * time.Hour) })
	p.SweepDeadlines()
	tk := created[0]
	if tk.State() != task.StateExpired {
		t.Fatalf("task state after the sweep = %v, want expired", tk.State())
	}
	err = p.SubmitResult(tk.ID, &task.Result{SubmittedBy: "w1", Fields: map[string]string{"text": "Bonjour"}, Quality: 1})
	if !errors.Is(err, task.ErrClosed) {
		t.Fatalf("submission to an expired task = %v, want task.ErrClosed", err)
	}
	if n := p.StagedAnswers(id); n != 0 {
		t.Errorf("submission to an expired task staged %d answers", n)
	}
	if _, err := p.CommitRound(id); err != nil {
		t.Fatal(err)
	}
	eng := p.Engine(id)
	if got := len(eng.Facts("translated")); got != 0 {
		t.Errorf("translated = %d, want 0", got)
	}
	if got := pendingIDs(eng); got != "[translated|1 translated|2]" {
		t.Errorf("pending = %s, want [translated|1 translated|2]", got)
	}
}

// TestSubmitResultCommitsTheStagedRound: SubmitResult commits the project's
// whole staging round in one commit, so an answer SubmitResultBatched staged
// earlier is derived together with its own.
func TestSubmitResultCommitsTheStagedRound(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(translationProject())
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil || len(created) != 2 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	if err := p.SubmitResultBatched(created[0].ID, &task.Result{
		SubmittedBy: "w1", Fields: map[string]string{"text": "Bonjour"}, Quality: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if n := p.StagedAnswers(id); n != 1 {
		t.Fatalf("staged after the batched submission = %d, want 1", n)
	}
	round := p.NextRound(id)
	if err := p.SubmitResult(created[1].ID, &task.Result{
		SubmittedBy: "w2", Fields: map[string]string{"text": "A demain"}, Quality: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if got := p.NextRound(id) - round; got != 1 {
		t.Errorf("SubmitResult committed %d rounds, want 1", got)
	}
	if n := p.StagedAnswers(id); n != 0 {
		t.Errorf("staged after SubmitResult = %d, want 0", n)
	}
	eng := p.Engine(id)
	if got := fmt.Sprint(eng.Facts("translated")); got != `[(1, "Bonjour") (2, "A demain")]` {
		t.Errorf("translated = %s, want both answers", got)
	}
	if got := pendingIDs(eng); got != "[checked|1 checked|2]" {
		t.Errorf("pending = %s, want [checked|1 checked|2]", got)
	}
}

func TestControllerSuggestionVisibleThroughPlatform(t *testing.T) {
	p, crowd := newPlatformWithCrowd(t, 15)
	admin, _ := p.RegisterProject(translationProject())
	p.GenerateTasksFromCyLog(admin.Description.ID)
	p.CollectInterest(crowd)
	teams := p.AssignOpenTasks()
	for id, team := range teams {
		got, ok := p.Controller.Suggestion(id)
		if !ok || got.Size() != team.Size() {
			t.Errorf("suggestion for %s not visible", id)
		}
		if team.Size() < 2 || team.Size() > 3 {
			t.Errorf("team size %d violates constraints", team.Size())
		}
		if team.Algorithm != (assign.AffinityGreedy{}).Name() {
			t.Errorf("unexpected algorithm %q", team.Algorithm)
		}
	}
}

// TestEventLogBounded commits more rounds than the event log retains: the log
// must keep the newest eventLogCapacity events, oldest first, count the ones
// it overwrote, and still hand every event to subscribers.
func TestEventLogBounded(t *testing.T) {
	p := New()
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	fixpoints := 0
	cancel := p.Subscribe(func(e Event) {
		if e.Kind == "fixpoint" {
			fixpoints++
		}
	})
	defer cancel()
	before := len(p.Events())
	const commits = eventLogCapacity + 100
	for i := 0; i < commits; i++ {
		if _, err := p.CommitRound(id); err != nil {
			t.Fatal(err)
		}
	}
	if fixpoints != commits {
		t.Fatalf("subscriber saw %d fixpoint events, want %d", fixpoints, commits)
	}
	events := p.Events()
	if len(events) != eventLogCapacity {
		t.Fatalf("log retains %d events after %d commits, want %d", len(events), commits, eventLogCapacity)
	}
	if got, want := p.EventsDropped(), uint64(before+commits-eventLogCapacity); got != want {
		t.Fatalf("EventsDropped = %d, want %d", got, want)
	}
	// Empty rounds are numbered 1, 2, ...: the log holds the newest rounds.
	for i, e := range events {
		if want := uint64(commits - eventLogCapacity + 1 + i); e.Kind != "fixpoint" || e.Round != want {
			t.Fatalf("events[%d] = %s round %d, want fixpoint round %d", i, e.Kind, e.Round, want)
		}
	}
}
