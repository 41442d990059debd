package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
)

// wakeDeadline bounds how long a staged input may wait for its covering
// commit. The deriver has no clock of its own, so only a wake-up can commit
// within it; the servers below give it an hour-long CommitInterval, which
// only turns it on.
const wakeDeadline = 2 * time.Second

// watchFixpoints records the highest round of the project's "fixpoint"
// events. Rounds commit in order, so round N is covered once it reaches N.
func watchFixpoints(t *testing.T, p *platform.Platform, id project.ID) *atomic.Uint64 {
	t.Helper()
	var highest atomic.Uint64
	cancel := p.Subscribe(func(e platform.Event) {
		if e.Kind != "fixpoint" || e.Project != id {
			return
		}
		for {
			cur := highest.Load()
			if e.Round <= cur || highest.CompareAndSwap(cur, e.Round) {
				return
			}
		}
	})
	t.Cleanup(cancel)
	return &highest
}

// awaitRound fails the test unless a fixpoint covering round arrives within
// wakeDeadline.
func awaitRound(t *testing.T, highest *atomic.Uint64, round uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(wakeDeadline)
	for highest.Load() < round {
		if time.Now().After(deadline) {
			t.Fatalf("%s: no fixpoint covering round %d within %s (highest %d)", what, round, wakeDeadline, highest.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeriverWakesOnStaging pins that every path leaving work for a commit
// wakes the deriver: a deriver ticking at its hour-long CommitInterval would
// leave each input underived for an hour.
func TestDeriverWakesOnStaging(t *testing.T) {
	cases := []struct {
		name string
		// stage leaves work for the deriver and returns the round that must
		// be covered.
		stage func(t *testing.T, base string, p *platform.Platform) uint64
		// labeled and pending are the state the covering commit derives.
		labeled, pending int
	}{
		{"http-answer", func(t *testing.T, base string, p *platform.Platform) uint64 {
			round, err := postAnswer(base, "label|1")
			if err != nil {
				t.Fatal(err)
			}
			return round
		}, 1, 2},
		{"http-fact", func(t *testing.T, base string, p *platform.Platform) uint64 {
			round := p.NextRound("labels")
			resp := do(t, "POST", base+"/api/v1/projects/labels/facts", FactRequest{Relation: "item", Values: []any{4}}, nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("fact: status %d", resp.StatusCode)
			}
			return round
		}, 0, 4},
		{"stage-answer", func(t *testing.T, base string, p *platform.Platform) uint64 {
			round, err := p.StageAnswer("labels", "label|1", map[string]any{"ok": true})
			if err != nil {
				t.Fatal(err)
			}
			return round
		}, 1, 2},
		{"submit-result", func(t *testing.T, base string, p *platform.Platform) uint64 {
			created, err := p.GenerateTasksFromCyLog("labels")
			if err != nil {
				t.Fatal(err)
			}
			var tk *task.Task
			for _, c := range created {
				if c.GeneratedBy == "cylog:label|1" {
					tk = c
				}
			}
			if tk == nil {
				t.Fatalf("no task generated for label|1 among %d", len(created))
			}
			round := p.NextRound("labels")
			if err := p.SubmitResult(tk.ID, &task.Result{SubmittedBy: "w1", Fields: map[string]string{"ok": "yes"}}); err != nil {
				t.Fatal(err)
			}
			return round
		}, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, p := newTestService(t, Options{CommitInterval: time.Hour})
			seedItems(t, ts.URL, 3)
			highest := watchFixpoints(t, p, "labels")
			round := tc.stage(t, ts.URL, p)
			awaitRound(t, highest, round, tc.name)
			eng := p.Engine("labels")
			if got := len(eng.Facts("labeled")); got != tc.labeled {
				t.Errorf("labeled facts after the covering commit = %d, want %d", got, tc.labeled)
			}
			if got := len(eng.PendingRequests()); got != tc.pending {
				t.Errorf("pending requests after the covering commit = %d, want %d", got, tc.pending)
			}
		})
	}
}

// postAnswer approves a request over HTTP and returns the round of its 202.
// It reports failures as errors, so goroutines other than the test's may call
// it.
func postAnswer(base, requestID string) (uint64, error) {
	body, err := json.Marshal(AnswerRequest{RequestID: requestID, Values: map[string]any{"ok": true}})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+"/api/v1/projects/labels/answers", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("answer %s: status %d", requestID, resp.StatusCode)
	}
	var ack AnswerResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, fmt.Errorf("answer %s: %w", requestID, err)
	}
	return ack.Round, nil
}

// TestDeriverCoversConcurrentStagers races eight HTTP stagers against the
// deriver. Every accepted answer's round must be covered without a clock,
// so a wake-up lost between a stage and the deriver's look at the queue
// shows up as a round that never commits.
func TestDeriverCoversConcurrentStagers(t *testing.T) {
	const (
		items   = 48
		stagers = 8
	)
	ts, p := newTestService(t, Options{CommitInterval: time.Hour})
	seedItems(t, ts.URL, items)
	highest := watchFixpoints(t, p, "labels")

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []uint64
	)
	for s := 0; s < stagers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s + 1; i <= items; i += stagers {
				round, err := postAnswer(ts.URL, fmt.Sprintf("label|%d", i))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, round)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, round := range acked {
		awaitRound(t, highest, round, "concurrent stagers")
	}
	if got := len(p.Engine("labels").Facts("labeled")); got != items {
		t.Fatalf("labeled facts = %d, want %d", got, items)
	}
}

// TestDeriverBatchesArrivalsDuringCommit holds a deriver commit open (a
// Subscribe sink blocks on its fixpoint event, inside CommitRound) while N
// answers are staged, then releases it. The deriver must commit all N in the
// next round instead of one commit per answer.
func TestDeriverBatchesArrivalsDuringCommit(t *testing.T) {
	const n = 10
	ts, p := newTestService(t, Options{CommitInterval: time.Hour})
	seedItems(t, ts.URL, n+1)

	entered, release := make(chan struct{}), make(chan struct{})
	var (
		once    sync.Once
		mu      sync.Mutex
		carried = map[uint64]int{} // round → answers its commit carried
	)
	cancel := p.Subscribe(func(e platform.Event) {
		if e.Kind != "fixpoint" {
			return
		}
		var answers int
		fmt.Sscanf(e.Message, "%d answers", &answers)
		mu.Lock()
		carried[e.Round] = answers
		mu.Unlock()
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	defer cancel()

	first, err := p.StageAnswer("labels", "label|1", map[string]any{"ok": true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(wakeDeadline):
		close(release)
		t.Fatal("the deriver never committed the first answer")
	}
	for i := 2; i <= n+1; i++ {
		round, err := p.StageAnswer("labels", fmt.Sprintf("label|%d", i), map[string]any{"ok": true})
		if err != nil {
			close(release)
			t.Fatal(err)
		}
		if round != first+1 {
			close(release)
			t.Fatalf("answer %d staged into round %d while round %d was committing, want %d", i, round, first, first+1)
		}
	}
	close(release)

	deadline := time.Now().Add(wakeDeadline)
	for {
		mu.Lock()
		_, done := carried[first+1]
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d not committed within %s", first+1, wakeDeadline)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if carried[first] != 1 || carried[first+1] != n {
		t.Fatalf("commits carried %v, want round %d: 1 and round %d: %d", carried, first, first+1, n)
	}
	if got := len(p.Engine("labels").Facts("labeled")); got != n+1 {
		t.Fatalf("labeled facts = %d, want %d", got, n+1)
	}
}

// TestDeriverCommitsStagedFacts pins that a fact POSTed to an idle project is
// derived by the background deriver on its own: no worker answers, so the
// round holds no answers, yet a fixpoint event must arrive and the task the
// fact opens must appear in the feed.
func TestDeriverCommitsStagedFacts(t *testing.T) {
	p := platform.New()
	if _, err := p.RegisterProject(project.Description{
		ID: "idle", Name: "Idle", CyLogSource: labelingProgram,
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
