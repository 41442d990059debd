package api

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSubmissionStress drives many concurrent HTTP submitters
// against a live background deriver — answers race RunIncremental, status
// and feed reads race commits, and a WebSocket subscriber consumes the event
// stream throughout. Run under -race (the repo's `make test` always is),
// this is the service layer's data-race gate; the final state check proves
// no answer was lost or double-applied.
func TestConcurrentSubmissionStress(t *testing.T) {
	const (
		items   = 48
		workers = 8
	)
	ts, p := newTestService(t, Options{
		CommitInterval: 2 * time.Millisecond, // also the 429 backoff hint
		QueueCapacity:  16,                   // small enough that workers actually hit 429s
	})
	seedItems(t, ts.URL, items)

	var feed TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks?limit=1000", nil, &feed)
	if len(feed.Tasks) != items {
		t.Fatalf("feed has %d tasks, want %d", len(feed.Tasks), items)
	}

	stream, err := DialEvents(ts.URL, "labels")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	go func() {
		for {
			if _, err := stream.Next(); err != nil {
				return
			}
		}
	}()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				do(t, "GET", ts.URL+"/api/v1/projects/labels", nil, nil)
				do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks?limit=10", nil, nil)
			}
		}
	}()

	// Each worker answers a disjoint slice of the request set, retrying on
	// 429 (admission control) until accepted.
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < items; i += workers {
				for {
					resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
						AnswerRequest{RequestID: feed.Tasks[i].ID, Values: map[string]any{"ok": true}}, nil)
					if resp.StatusCode == http.StatusAccepted {
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						errs <- &unexpectedStatus{status: resp.StatusCode, id: feed.Tasks[i].ID}
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drain: the deriver may still hold the last answers in a staging round.
	eng := p.Engine("labels")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p.StagedAnswers("labels") == 0 && len(eng.PendingRequests()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never drained: %d staged, %d pending",
				p.StagedAnswers("labels"), len(eng.PendingRequests()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(eng.Facts("labeled")); got != items {
		t.Fatalf("labeled facts = %d, want %d", got, items)
	}
	if got := len(eng.Facts("flagged")); got != 0 {
		t.Fatalf("flagged facts = %d, want 0 (every item approved)", got)
	}
}

type unexpectedStatus struct {
	status int
	id     string
}

func (e *unexpectedStatus) Error() string {
	return "unexpected status " + http.StatusText(e.status) + " answering " + e.id
}
