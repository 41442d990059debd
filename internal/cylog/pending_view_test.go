package cylog

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// pendingViewProgram opens an approve request per item and a review request
// per item not yet approved, so an approval closes one request and withdraws
// another through retraction of the negated stratum.
const pendingViewProgram = `
rel item(n: int).
open rel approve(n: int, ok: bool) key(n) asks "Approve this item".
rel approved(n: int).
rel rejected(n: int).
open rel review(n: int, note: string) key(n) asks "Review this rejection".
rel reviewed(n: int).

approved(N) :- item(N), approve(N, true).
rejected(N) :- item(N), !approved(N).
reviewed(N) :- rejected(N), review(N, _).
`

// pendingMapSorted is the ground truth the published view must equal: the
// pending map, read under the engine lock and sorted by ID.
func pendingMapSorted(e *Engine) []OpenRequest {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]OpenRequest, 0, len(e.pending))
	for _, r := range e.pending {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func requireViewIsPendingSet(t *testing.T, e *Engine, step string) {
	t.Helper()
	got, want := e.PendingRequests(), pendingMapSorted(e)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PendingRequests = %v, want the sorted pending map %v", step, requestIDList(got), requestIDList(want))
	}
}

func requestIDList(rs []OpenRequest) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

// TestPendingRequestsDoesNotWaitForCommit holds the engine lock, standing in
// for a commit in flight, and requires PendingRequests to return the last
// published set anyway: a feed read linearizes before the commit instead of
// queueing behind it.
func TestPendingRequestsDoesNotWaitForCommit(t *testing.T) {
	e, err := NewEngine(MustParse(pendingViewProgram))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	got := make(chan []OpenRequest, 1)
	go func() { got <- e.PendingRequests() }()
	select {
	case reqs := <-got:
		e.mu.Unlock()
		if !reflect.DeepEqual(reqs, want) {
			t.Fatalf("PendingRequests under a held lock = %v, want %v", requestIDList(reqs), requestIDList(want))
		}
	case <-time.After(100 * time.Millisecond):
		e.mu.Unlock()
		t.Fatal("PendingRequests waited for the engine lock")
	}
}

// TestPendingViewFollowsEveryMutator changes the pending set through each
// operation that can — with no run after the ones that do not run — and
// requires the published view to equal the sorted pending map after each.
func TestPendingViewFollowsEveryMutator(t *testing.T) {
	e, err := NewEngine(MustParse(pendingViewProgram))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PendingRequests(); got == nil || len(got) != 0 {
		t.Fatalf("fresh engine: PendingRequests = %v, want empty", got)
	}
	for n := 1; n <= 8; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "Run")
	if len(reqs) != 16 || &reqs[0] != &e.PendingRequests()[0] {
		t.Fatalf("Run returned %v, want the published view of 16 requests", requestIDList(reqs))
	}

	if err := e.Answer("approve|1", map[string]any{"ok": true}); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "Answer")
	if err := e.AnswerFact("approve", 2, false); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "AnswerFact")
	if _, err := e.ReplayOps([]FactOp{{Kind: OpAnswer, RequestID: "approve|3", Relation: "approve", Tuple: relstore.NewTuple(3, false)}}); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "ReplayOps")
	if len(e.PendingRequests()) != 13 {
		t.Fatalf("after three answers without a run: %v, want 13 requests", requestIDList(e.PendingRequests()))
	}

	// The run withdraws review|1 (item 1 is approved), then a batch rejects
	// 4 and 5, approves 6 and reviews 2.
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "RunIncremental(nil)")
	b := e.NewAnswerBatch()
	for _, a := range []struct {
		id string
		ok bool
	}{{"approve|4", false}, {"approve|5", false}, {"approve|6", true}} {
		if err := b.Answer(a.id, map[string]any{"ok": a.ok}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AnswerFact("review", 2, "fine"); err != nil {
		t.Fatal(err)
	}
	reqs, err = e.RunIncremental(b)
	if err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "RunIncremental(batch)")
	if !reflect.DeepEqual(reqs, e.PendingRequests()) {
		t.Fatalf("RunIncremental returned %v, want the published view %v", requestIDList(reqs), requestIDList(e.PendingRequests()))
	}

	// New items after a completed fixpoint make the full run retract first:
	// every request is dropped and the live ones are re-admitted. Approving
	// item 7 first leaves review|7 among the dropped requests that are not.
	if err := e.Answer("approve|7", map[string]any{"ok": true}); err != nil {
		t.Fatal(err)
	}
	for n := 9; n <= 10; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "Run after AddFact")
	want := []string{"approve|10", "approve|8", "approve|9",
		"review|10", "review|3", "review|4", "review|5", "review|8", "review|9"}
	if got := requestIDList(e.PendingRequests()); !reflect.DeepEqual(got, want) {
		t.Fatalf("final pending = %v, want %v", got, want)
	}
}

// TestPendingViewConcurrentReaders reads the view from several goroutines
// while rounds commit and answers close requests. Under -race it checks that
// publication orders the slice's writes before its readers; every read must
// see a strictly ID-sorted set no larger than the initial one.
func TestPendingViewConcurrentReaders(t *testing.T) {
	const items = 200
	e, err := NewEngine(MustParse(pendingViewProgram))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= items; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := e.PendingRequests()
				if len(view) > 2*items {
					t.Errorf("view holds %d requests, more than the %d ever pending", len(view), 2*items)
					return
				}
				for i := 1; i < len(view); i++ {
					if view[i-1].ID >= view[i].ID {
						t.Errorf("view not strictly sorted at %d: %s, %s", i, view[i-1].ID, view[i].ID)
						return
					}
				}
			}
		}()
	}
	for n := 1; n <= items; n += 4 {
		b := e.NewAnswerBatch()
		if err := b.Answer(fmt.Sprintf("approve|%d", n), map[string]any{"ok": true}); err != nil {
			t.Error(err)
			break
		}
		if _, err := e.RunIncremental(b); err != nil {
			t.Error(err)
			break
		}
		if err := e.Answer(fmt.Sprintf("approve|%d", n+1), map[string]any{"ok": false}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	readers.Wait()
	requireViewIsPendingSet(t, e, "after the concurrent rounds")
}
