package api

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
)

// TestCreateProjectBackendAndInterval covers the creation-side knobs: the
// request's backend override selects the relstore backend for the project's
// engine, and commit_interval_ms lands in the project description and the
// status view.
func TestCreateProjectBackendAndInterval(t *testing.T) {
	p := platform.New()
	p.SetStorage(platform.StorageOptions{Dir: t.TempDir(), BudgetBytes: 1 << 20})
	srv := NewServer(p, Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	var created ProjectStatus
	resp := do(t, "POST", ts.URL+"/api/v1/projects", CreateProjectRequest{
		ID: "diskproj", Name: "Disk project", CyLog: labelingProgram,
		Backend: "disk", CommitIntervalMS: 250,
	}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if created.CommitIntervalMS != 250 {
		t.Fatalf("created commit_interval_ms = %d, want 250", created.CommitIntervalMS)
	}
	var st ProjectStatus
	do(t, "GET", ts.URL+"/api/v1/projects/diskproj", nil, &st)
	if st.Storage == nil || st.Storage.Backend != "disk" {
		t.Fatalf("status storage = %+v, want disk backend", st.Storage)
	}
	if st.CommitIntervalMS != 250 {
		t.Fatalf("status commit_interval_ms = %d, want 250", st.CommitIntervalMS)
	}

	// An unknown backend is a validation error, not a registered project.
	resp = do(t, "POST", ts.URL+"/api/v1/projects", CreateProjectRequest{
		Name: "Bad", CyLog: labelingProgram, Backend: "papyrus",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad backend: status %d, want 400", resp.StatusCode)
	}
}

func TestProjectUpdateCommitInterval(t *testing.T) {
	ts, p := newTestService(t, Options{})

	ms := int64(400)
	var updated ProjectStatus
	resp := do(t, "PATCH", ts.URL+"/api/v1/projects/labels", UpdateProjectRequest{CommitIntervalMS: &ms}, &updated)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d", resp.StatusCode)
	}
	if updated.CommitIntervalMS != 400 {
		t.Fatalf("patched commit_interval_ms = %d, want 400", updated.CommitIntervalMS)
	}
	admin, _ := p.Projects.Get("labels")
	if admin.Description.CommitInterval != 400*time.Millisecond {
		t.Fatalf("description interval = %s, want 400ms", admin.Description.CommitInterval)
	}

	// Zero returns the project to the server-wide cadence. (Decode into a
	// fresh struct: commit_interval_ms is omitempty, so zero is absent.)
	zero := int64(0)
	var reset ProjectStatus
	do(t, "PATCH", ts.URL+"/api/v1/projects/labels", UpdateProjectRequest{CommitIntervalMS: &zero}, &reset)
	if reset.CommitIntervalMS != 0 {
		t.Fatalf("reset commit_interval_ms = %d, want 0", reset.CommitIntervalMS)
	}
	if admin, _ := p.Projects.Get("labels"); admin.Description.CommitInterval != 0 {
		t.Fatalf("description interval after reset = %s, want 0", admin.Description.CommitInterval)
	}

	neg := int64(-5)
	resp = do(t, "PATCH", ts.URL+"/api/v1/projects/labels", UpdateProjectRequest{CommitIntervalMS: &neg}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative interval: status %d, want 400", resp.StatusCode)
	}
	resp = do(t, "PATCH", ts.URL+"/api/v1/projects/nope", UpdateProjectRequest{CommitIntervalMS: &ms}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown project: status %d, want 404", resp.StatusCode)
	}
}

// TestPerProjectCommitCadence drives two projects through the background
// deriver: "fast" rides the server-wide tick, "slow" overrides it with a much
// longer interval. With answers staged steadily into both, the fast project
// must commit strictly more rounds than the slow one, and the slow one must
// still commit at least once — its answers are derived on its own cadence,
// not starved and not hurried. Margins are wide (15ms vs 250ms over ~750ms of
// staging) so scheduler noise cannot flip the comparison.
func TestPerProjectCommitCadence(t *testing.T) {
	p := platform.New()
	for _, d := range []project.Description{
		{ID: "fast", Name: "Fast", CyLogSource: labelingProgram},
		{ID: "slow", Name: "Slow", CyLogSource: labelingProgram, CommitInterval: 250 * time.Millisecond},
	} {
		if _, err := p.RegisterProject(d); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	commits := map[string]int{}
	cancel := p.Subscribe(func(e platform.Event) {
		if e.Kind == "fixpoint" {
			mu.Lock()
			commits[string(e.Project)]++
			mu.Unlock()
		}
	})
	defer cancel()

	srv := NewServer(p, Options{CommitInterval: 15 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Seed items and collect each project's open requests with a manual
	// fixpoint (commits via POST .../fixpoint bypass the deriver cadence and
	// are excluded from the comparison below by resetting the counters).
	ids := map[string][]string{}
	for _, id := range []string{"fast", "slow"} {
		for i := 1; i <= 25; i++ {
			do(t, "POST", ts.URL+"/api/v1/projects/"+id+"/facts", FactRequest{Relation: "item", Values: []any{i}}, nil)
		}
		do(t, "POST", ts.URL+"/api/v1/projects/"+id+"/fixpoint", nil, nil)
		var feed TaskFeed
		do(t, "GET", ts.URL+"/api/v1/projects/"+id+"/tasks?limit=100", nil, &feed)
		if len(feed.Tasks) != 25 {
			t.Fatalf("%s: %d tasks, want 25", id, len(feed.Tasks))
		}
		for _, tv := range feed.Tasks {
			ids[id] = append(ids[id], tv.ID)
		}
	}
	mu.Lock()
	commits = map[string]int{}
	mu.Unlock()

	// Stage one answer into each project every 30ms: both always have work,
	// so commit counts reflect cadence alone.
	for i := 0; i < 25; i++ {
		for _, id := range []string{"fast", "slow"} {
			resp := do(t, "POST", ts.URL+"/api/v1/projects/"+id+"/answers",
				AnswerRequest{RequestID: ids[id][i], Values: map[string]any{"ok": true}}, nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s answer %d: status %d", id, i, resp.StatusCode)
			}
		}
		time.Sleep(30 * time.Millisecond)
	}

	// Let the slow project's final interval elapse.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		slow := commits["slow"]
		mu.Unlock()
		if slow >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	fast, slow := commits["fast"], commits["slow"]
	mu.Unlock()
	if slow < 1 {
		t.Fatalf("slow project never committed via the deriver (fast=%d)", fast)
	}
	if fast <= slow {
		t.Fatalf("cadence override had no effect: fast committed %d rounds, slow %d", fast, slow)
	}
}

// TestDeriverCommitsStagedFacts pins that a fact POSTed to an idle project is
// derived by the background deriver on its own: no worker answers, so the
// round holds no answers, yet a fixpoint event must arrive and the task the
// fact opens must appear in the feed.
func TestDeriverCommitsStagedFacts(t *testing.T) {
	p := platform.New()
	if _, err := p.RegisterProject(project.Description{
		ID: "idle", Name: "Idle", CyLogSource: labelingProgram, CommitInterval: 40 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, Options{CommitInterval: 10 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	base := ts.URL + "/api/v1/projects/idle"
	do(t, "POST", base+"/facts", FactRequest{Relation: "item", Values: []any{1}}, nil)
	do(t, "POST", base+"/fixpoint", nil, nil)

	fixpoints := make(chan uint64, 16)
	cancel := p.Subscribe(func(e platform.Event) {
		if e.Kind == "fixpoint" {
			fixpoints <- e.Round
		}
	})
	defer cancel()
	if resp := do(t, "POST", base+"/facts", FactRequest{Relation: "item", Values: []any{2}}, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fact: status %d", resp.StatusCode)
	}
	select {
	case round := <-fixpoints:
		if round != 2 {
			t.Errorf("deriver committed round %d, want 2", round)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no fixpoint event: the deriver never committed the staged fact")
	}
	var feed TaskFeed
	do(t, "GET", base+"/tasks", nil, &feed)
	found := false
	for _, tv := range feed.Tasks {
		found = found || tv.ID == "label|2"
	}
	if !found || feed.Total != 2 {
		t.Fatalf("feed after the deriver's commit = %+v, want label|1 and label|2", feed)
	}
}
