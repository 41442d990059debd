package platform

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/assign"
	"github.com/crowd4u/crowd4u-go/internal/crowdsim"
	"github.com/crowd4u/crowd4u-go/internal/project"
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

func TestAddComplexTaskDecomposes(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(project.Description{
		Name:   "Citizen journalism",
		Scheme: task.Simultaneous,
		Factors: project.DesiredFactors{
			Constraints: task.Constraints{UpperCriticalMass: 4, MinTeamSize: 2, RequiredSkill: "journalism", MinSkill: 0.3},
		},
	})
	parent := task.NewTask("", string(admin.Description.ID), "Report on the festival", task.Simultaneous, task.Constraints{})
	parent.Input["topic"] = "city festival"
	parent.Input["sections"] = "intro,main,interviews"
	micro, err := p.AddComplexTask(admin.Description.ID, parent, task.SectionDecomposer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(micro) != 3 {
		t.Fatalf("micro-tasks = %d", len(micro))
	}
	if p.Tasks.Len() != 4 { // parent + 3 micro
		t.Errorf("pool size = %d", p.Tasks.Len())
	}
	for _, m := range micro {
		if m.Constraints.UpperCriticalMass != 4 || m.Constraints.RequiredSkill != "journalism" {
			t.Errorf("micro constraints not inherited: %+v", m.Constraints)
		}
	}
	if parent.State() == task.StateOpen {
		t.Error("parent should not remain open for assignment")
	}
	if _, err := p.AddComplexTask("nope", parent, task.SectionDecomposer{}); err == nil {
		t.Error("unknown project should fail")
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
	reports, err := p.RunUntilQuiescent(crowd, 10)
	if err != nil {
		t.Fatal(err)
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
	results := p.CompletedResults(admin.Description.ID)
	if len(results) < 4 { // 2 translation tasks + 2 check tasks
		t.Errorf("completed results = %d", len(results))
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
	if convertAnswer("ok", "yes") != true || convertAnswer("ok", "no") != false {
		t.Error("boolean columns should convert yes/no")
	}
	if convertAnswer("text", "true") != true {
		t.Error("explicit true converts to bool even for text columns")
	}
	if convertAnswer("text", "hello") != "hello" {
		t.Error("plain text should pass through")
	}
	if !looksBoolean("is_valid") || !looksBoolean("confirmed") || looksBoolean("text") {
		t.Error("looksBoolean misbehaves")
	}
	if mean(nil) != 0 || mean([]float64{2, 4}) != 3 {
		t.Error("mean misbehaves")
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

// TestFeedResultErrorSurfaced pins the error contract of the answer feed:
// benign rejections (request already closed) are skipped with an event, but
// a type-mismatched answer — a platform bug — is surfaced to the caller and
// the audit log instead of being swallowed as "skipped".
func TestFeedResultErrorSurfaced(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	d := translationProject()
	d.CyLogSource = `
rel item(sid: int).
open rel rating(sid: int, score: int) key(sid) asks "Rate this item".
rel rated(sid: int, score: int).
item(1).
rated(S, R) :- item(S), rating(S, R).
`
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

// TestSubmitResultSingle covers the per-answer path kept for lone
// submissions: the result completes the task and reaches the engine
// immediately, without opening a batch round.
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
		t.Fatalf("translated = %d, want 1 (per-answer path ingests immediately)", got)
	}
	if got := len(eng.PendingRequests()); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if created[0].State() != task.StateCompleted {
		t.Errorf("task state = %v", created[0].State())
	}
	if err := p.SubmitResult("nope", &task.Result{}); err == nil {
		t.Error("unknown task should fail")
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
