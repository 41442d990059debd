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

	// Zero returns the project to committing on arrival. (Decode into a
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
// deriver: "fast" commits on arrival, "slow" sets a 250ms commit interval.
// With answers staged steadily into both, the fast project must commit
// strictly more rounds than the slow one, the slow one must commit every
// answer — the last ones after staging stops, when only the deriver's timer
// can wake it — and consecutive slow commits must be at least the interval
// apart, less cadenceJitter.
func TestPerProjectCommitCadence(t *testing.T) {
	// cadenceJitter allows for clock granularity between the deriver's
	// reading of the previous commit's end and the events' timestamps.
	const (
		slowInterval  = 250 * time.Millisecond
		cadenceJitter = 5 * time.Millisecond
	)
	p := platform.New()
	for _, d := range []project.Description{
		{ID: "fast", Name: "Fast", CyLogSource: labelingProgram},
		{ID: "slow", Name: "Slow", CyLogSource: labelingProgram, CommitInterval: slowInterval},
	} {
		if _, err := p.RegisterProject(d); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	commits := map[string]int{}
	var slowAt []time.Time
	cancel := p.Subscribe(func(e platform.Event) {
		if e.Kind == "fixpoint" {
			mu.Lock()
			commits[string(e.Project)]++
			if e.Project == "slow" {
				slowAt = append(slowAt, e.At)
			}
			mu.Unlock()
		}
	})
	defer cancel()

	srv := NewServer(p, Options{CommitInterval: 15 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Seed items and collect each project's open requests with a manual
	// fixpoint (commits via POST .../fixpoint ignore commit intervals and
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
	slowAt = nil
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

	// Nothing is staged from here on, so only the deriver's timer can commit
	// the answers the slow project's last interval held back. Wait for their
	// derivation, not for the round to leave the queue: a commit detaches the
	// round before its fixpoint derives it.
	deadline := time.Now().Add(5 * time.Second)
	labeled := func() int { return len(p.Engine("slow").Facts("labeled")) }
	for labeled() < 25 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := labeled(); got != 25 {
		t.Fatalf("slow project derived %d of 25 answers: its held-back round never committed", got)
	}

	mu.Lock()
	fast, slow := commits["fast"], commits["slow"]
	at := append([]time.Time(nil), slowAt...)
	mu.Unlock()
	if slow < 1 {
		t.Fatalf("slow project never committed via the deriver (fast=%d)", fast)
	}
	if fast <= slow {
		t.Fatalf("cadence override had no effect: fast committed %d rounds, slow %d", fast, slow)
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < slowInterval-cadenceJitter {
			t.Errorf("slow commits %d and %d are %s apart, want at least %s", i-1, i, gap, slowInterval-cadenceJitter)
		}
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
