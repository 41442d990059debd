package webui

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/wal"
)

// taskFor returns the task generated for the request id among created.
func taskFor(t *testing.T, created []*task.Task, requestID string) *task.Task {
	t.Helper()
	for _, tk := range created {
		if tk.GeneratedBy == "cylog:"+requestID {
			return tk
		}
	}
	t.Fatalf("no task generated for %s among %d", requestID, len(created))
	return nil
}

// TestFormAnswerReachesCyLog answers a CyLog-generated task through the
// form-based task UI: the answer must be derived, and the next task
// generation must issue the follow-up check and no second task for the
// answered request.
func TestFormAnswerReachesCyLog(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	tk := taskFor(t, created, "translated|1")
	rec := postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"worker": {"sim-0001"}, "text": {"Bienvenue aux nouvelles du matin."}})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("answer = %d %s", rec.Code, rec.Body.String())
	}
	if tk.State() != task.StateCompleted {
		t.Errorf("task state = %v", tk.State())
	}
	eng := p.Engine(id)
	if got := fmt.Sprint(eng.Facts("translated")); got != `[(1, "Bienvenue aux nouvelles du matin.")]` {
		t.Fatalf("translated = %s, want the form answer", got)
	}
	next, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 1 || next[0].GeneratedBy != "cylog:checked|1" {
		var got []string
		for _, n := range next {
			got = append(got, n.GeneratedBy)
		}
		t.Fatalf("next generation issued %v, want only the check of sentence 1", got)
	}
}

// TestFormAnswerKeepsText answers a translation task with "Yes" through the
// form: the text column stores the answer as written, not as a bool.
func TestFormAnswerKeepsText(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	tk := taskFor(t, created, "translated|1")
	rec := postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"worker": {"sim-0001"}, "text": {"Yes"}})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("answer = %d %s", rec.Code, rec.Body.String())
	}
	if got := fmt.Sprint(p.Engine(id).Facts("translated")); got != `[(1, "Yes")]` {
		t.Fatalf("translated = %s, want the form answer as written", got)
	}
}

// TestFormAnswerRejectedByType answers an int open column with text: the
// engine refuses it, so the form gets 400 and the task stays open, and a
// valid value sent afterwards completes it.
func TestFormAnswerRejectedByType(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, err := p.RegisterProject(project.Description{Name: "ratings", CyLogSource: `
rel item(id: int).
open rel rating(id: int, score: int) key(id) asks "Rate this item from 1 to 5".
rel rated(id: int, score: int).
item(1).
rated(I, S) :- item(I), rating(I, S).
`})
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	tk := taskFor(t, created, "rating|1")
	path := "/tasks/" + string(tk.ID) + "/answer"
	if rec := postForm(t, s, path, url.Values{"worker": {"sim-0001"}, "score": {"five"}}); rec.Code != http.StatusBadRequest {
		t.Fatalf("text for an int column = %d %s, want 400", rec.Code, rec.Body.String())
	}
	if tk.State() != task.StateOpen {
		t.Fatalf("rejected answer moved the task to %v", tk.State())
	}
	if rec := postForm(t, s, path, url.Values{"worker": {"sim-0001"}, "score": {"5"}}); rec.Code != http.StatusSeeOther {
		t.Fatalf("valid answer after a rejected one = %d %s", rec.Code, rec.Body.String())
	}
	if got := fmt.Sprint(p.Engine(id).Facts("rated")); got != "[(1, 5)]" {
		t.Errorf("rated = %s", got)
	}
	if rec := postForm(t, s, path, url.Values{"worker": {"sim-0002"}, "score": {"4"}}); rec.Code != http.StatusConflict {
		t.Errorf("answer to a completed task = %d, want 409", rec.Code)
	}
}

// TestFormAnswerToAnsweredRequest answers a task whose request the API
// already answered: the engine skips the second answer as benign, so the form
// completes the task with a redirect, the first answer stands, and the skip
// is in the event log.
func TestFormAnswerToAnsweredRequest(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	tk := taskFor(t, created, "translated|1")
	if _, err := p.StageAnswer(id, "translated|1", map[string]any{"text": "Bonjour"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommitRound(id); err != nil {
		t.Fatal(err)
	}
	rec := postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"worker": {"sim-0001"}, "text": {"Salut"}})
	if rec.Code != http.StatusSeeOther {
		t.Fatalf("answer to an answered request = %d %s, want 303", rec.Code, rec.Body.String())
	}
	if tk.State() != task.StateCompleted {
		t.Errorf("task state = %v", tk.State())
	}
	if got := fmt.Sprint(p.Engine(id).Facts("translated")); got != `[(1, "Bonjour")]` {
		t.Errorf("translated = %s, want the API's answer", got)
	}
	skipped := 0
	for _, e := range p.Events() {
		if e.Kind == "cylog-answer-skipped" && e.Task == tk.ID {
			skipped++
		}
	}
	if skipped != 1 {
		t.Errorf("cylog-answer-skipped events for the task = %d, want 1", skipped)
	}
}

// TestFormAnswerCommitFailure answers through the form after the project's
// WAL has failed (closed underneath the platform): the commit cannot make
// the round durable, so the form gets 500, not a redirect that would
// acknowledge the answer.
func TestFormAnswerCommitFailure(t *testing.T) {
	s, p, _ := newTestServer(t)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	l, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(id, l, 0); err != nil {
		t.Fatal(err)
	}
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	tk := taskFor(t, created, "translated|1")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec := postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", url.Values{"worker": {"sim-0001"}, "text": {"Bonjour"}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("answer with a failed WAL = %d %s, want 500", rec.Code, rec.Body.String())
	}
	walErrors := 0
	for _, e := range p.Events() {
		if e.Kind == "wal-error" {
			walErrors++
		}
	}
	if walErrors != 1 {
		t.Errorf("wal-error events = %d, want 1", walErrors)
	}
}

// routeAnswers is the oracle every answer route consults: the form fields a
// worker gives each request. checked|3 is never answered, so it stays
// pending at quiescence.
var routeAnswers = map[string]map[string]string{
	"translated|1": {"text": "T1"},
	"translated|2": {"text": "T2"},
	"translated|3": {"text": "T3"},
	"checked|1":    {"ok": "yes"},
	"checked|2":    {"ok": "no"},
}

// answerTasks is the task loop of the task-based routes: generate tasks,
// answer each through submit, until a generation issues none.
func answerTasks(t *testing.T, p *platform.Platform, id project.ID, submit func(tk *task.Task, fields map[string]string)) {
	t.Helper()
	for round := 0; round < 10; round++ {
		created, err := p.GenerateTasksFromCyLog(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(created) == 0 {
			return
		}
		for _, tk := range created {
			if fields, ok := routeAnswers[strings.TrimPrefix(tk.GeneratedBy, "cylog:")]; ok {
				submit(tk, fields)
			}
		}
	}
	t.Fatal("no quiescence within 10 rounds")
}

func routeResult(fields map[string]string) *task.Result {
	return &task.Result{SubmittedBy: "sim-0001", Fields: fields, Quality: 1}
}

// answerRoutes drive one platform to quiescence, each through its route,
// answering every request routeAnswers covers.
var answerRoutes = map[string]func(t *testing.T, s *Server, p *platform.Platform, id project.ID){
	"form": func(t *testing.T, s *Server, p *platform.Platform, id project.ID) {
		answerTasks(t, p, id, func(tk *task.Task, fields map[string]string) {
			form := url.Values{"worker": {"sim-0001"}}
			for k, v := range fields {
				form.Set(k, v)
			}
			if rec := postForm(t, s, "/tasks/"+string(tk.ID)+"/answer", form); rec.Code != http.StatusSeeOther {
				t.Fatalf("form answer to %s = %d %s", tk.GeneratedBy, rec.Code, rec.Body.String())
			}
		})
	},
	"submit-result": func(t *testing.T, s *Server, p *platform.Platform, id project.ID) {
		answerTasks(t, p, id, func(tk *task.Task, fields map[string]string) {
			if err := p.SubmitResult(tk.ID, routeResult(fields)); err != nil {
				t.Fatal(err)
			}
		})
	},
	"submit-result-batched": func(t *testing.T, s *Server, p *platform.Platform, id project.ID) {
		answerTasks(t, p, id, func(tk *task.Task, fields map[string]string) {
			if err := p.SubmitResultBatched(tk.ID, routeResult(fields)); err != nil {
				t.Fatal(err)
			}
		})
	},
	"stage-answer": func(t *testing.T, s *Server, p *platform.Platform, id project.ID) {
		for round := 0; round < 10; round++ {
			rc, err := p.CommitRound(id)
			if err != nil {
				t.Fatal(err)
			}
			staged := 0
			for _, req := range rc.Pending.All() {
				fields, ok := routeAnswers[req.ID]
				if !ok {
					continue
				}
				values := map[string]any{}
				for k, v := range fields {
					if v == "yes" || v == "no" {
						values[k] = v == "yes"
					} else {
						values[k] = v
					}
				}
				if _, err := p.StageAnswer(id, req.ID, values); err != nil {
					t.Fatal(err)
				}
				staged++
			}
			if staged == 0 {
				return
			}
		}
		t.Fatal("no quiescence within 10 rounds")
	},
}

// engineState renders every relation's facts and the pending request ids.
func engineState(e *cylog.Engine) string {
	var b strings.Builder
	for _, name := range e.Database().Names() {
		fmt.Fprintf(&b, "%s: %v\n", name, e.Facts(name))
	}
	var ids []string
	for _, r := range e.PendingRequests() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, "pending: %v\n", ids)
	return b.String()
}

// TestAnswerRoutesAgree answers the same program with the same oracle through
// every route an answer can take into CyLog — the web form, SubmitResult,
// SubmitResultBatched committed by GenerateTasksFromCyLog, and StageAnswer by
// request id committed by CommitRound. Every route must end in the same facts
// and pending request ids, and in the from-scratch reference's fixpoint.
func TestAnswerRoutesAgree(t *testing.T) {
	states := map[string]string{}
	for name, route := range answerRoutes {
		s, p, _ := newTestServer(t)
		admin, err := p.RegisterProject(translationProject())
		if err != nil {
			t.Fatal(err)
		}
		id := admin.Description.ID
		if err := p.AddFact(id, "sentence", 3, "Rain is expected tomorrow."); err != nil {
			t.Fatal(err)
		}
		route(t, s, p, id)
		eng := p.Engine(id)
		if err := reference.Check(eng, reference.BaseFacts(eng)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		states[name] = engineState(eng)
	}
	want := states["stage-answer"]
	for _, must := range []string{`final: [(1, "T1")]`, `checked: [(1, true) (2, false)]`, "pending: [checked|3]"} {
		if !strings.Contains(want, must) {
			t.Fatalf("stage-answer route ended in\n%s\nwhich lacks %q", want, must)
		}
	}
	for name, got := range states {
		if got != want {
			t.Errorf("%s route ended in\n%s\nstage-answer route in\n%s", name, got, want)
		}
	}
}
