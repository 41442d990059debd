package cylog_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
)

// approveRejectProgram is the canonical stale-negation workload: every item
// starts rejected (no approval yet), and each rejected item additionally asks
// for a human review. An approving answer must retract the stale rejected
// fact and withdraw the now-pointless review request.
const approveRejectProgram = `
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

// TestRetractionStaleNegationRegression pins the bug retraction fixes:
// approve-after-reject. The approving answer withdraws rejected(1) along
// with the review request it guarded, on every configuration of the
// differential matrix.
func TestRetractionStaleNegationRegression(t *testing.T) {
	for _, cfg := range matrix() {
		t.Run(cfg.String(), func(t *testing.T) {
			e, err := cylog.NewEngine(cylog.MustParse(approveRejectProgram))
			if err != nil {
				t.Fatal(err)
			}
			e.SetParallelism(cfg.parallelism)
			for n := 1; n <= 3; n++ {
				if err := e.AddFact("item", n); err != nil {
					t.Fatal(err)
				}
			}
			reqs, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			// 3 approve requests + 3 review requests (everything rejected).
			if len(reqs) != 6 {
				t.Fatalf("initial requests = %v", reqs)
			}
			if got := len(e.Facts("rejected")); got != 3 {
				t.Fatalf("rejected = %v", e.Facts("rejected"))
			}
			reviewReq1 := "review|1"
			reqs = commitRound(t, e, cfg.incremental, []cylog.OpenRequest{{ID: "approve|1"}}, map[string]any{"ok": true})

			rejected := e.Facts("rejected")
			if len(rejected) != 2 {
				t.Fatalf("rejected after approval = %v, want items 2 and 3", rejected)
			}
			for _, tup := range rejected {
				if n, _ := tup[0].AsInt(); n == 1 {
					t.Fatalf("stale rejected(1) survived the approval: %v", rejected)
				}
			}
			if got := len(e.Facts("approved")); got != 1 {
				t.Fatalf("approved = %v", e.Facts("approved"))
			}
			// The review request whose guard vanished is withdrawn, the other
			// two stay pending (2 approve + 2 review requests remain).
			if len(reqs) != 4 {
				t.Fatalf("requests after approval = %v", reqs)
			}
			for _, r := range reqs {
				if r.ID == reviewReq1 {
					t.Fatalf("review request for the approved item should be withdrawn: %v", reqs)
				}
			}
			checkReference(t, e)
			// A late answer to the withdrawn request reports the closed-request
			// error, distinguishable from a genuinely unknown id — but still
			// matches ErrUnknownRequest for older callers.
			err = e.Answer(reviewReq1, map[string]any{"note": "late"})
			if !errors.Is(err, cylog.ErrRequestClosed) || !errors.Is(err, cylog.ErrUnknownRequest) {
				t.Errorf("late answer to withdrawn request: %v", err)
			}
			if err := e.Answer("bogus|id", map[string]any{}); errors.Is(err, cylog.ErrRequestClosed) {
				t.Errorf("unknown id should not classify as closed: %v", err)
			}
		})
	}
}

// TestRetractionStats pins the work accounting of the retraction phase: one
// approval retracts exactly rejected(1) and re-derives the two surviving
// rejections that were over-deleted with it.
func TestRetractionStats(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(approveRejectProgram))
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(1)
	for n := 1; n <= 3; n++ {
		e.AddFact("item", n)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.RetractedTuples != 0 || s.ReDerivedTuples != 0 {
		t.Errorf("first run should retract nothing, stats = %+v", s)
	}
	batch := e.NewAnswerBatch()
	for _, r := range reqs {
		if r.Relation == "approve" {
			if n, _ := r.Key()["n"].AsInt(); n == 1 {
				if err := batch.Answer(r.ID, map[string]any{"ok": true}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := e.RunIncremental(batch); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.RetractedTuples != 1 {
		t.Errorf("RetractedTuples = %d, want 1 (rejected(1))", s.RetractedTuples)
	}
	if s.ReDerivedTuples != 2 {
		t.Errorf("ReDerivedTuples = %d, want 2 (rejected(2), rejected(3))", s.ReDerivedTuples)
	}
	if s.SeededDeltas != 1 {
		t.Errorf("SeededDeltas = %d, want 1 (the approve fact)", s.SeededDeltas)
	}
}

// TestRetractionEDBNegation covers retraction triggered by a plain EDB fact
// (no answers involved): a new edge revokes a node's endpoint status and
// withdraws the confirmation request that depended on it.
func TestRetractionEDBNegation(t *testing.T) {
	const src = `
rel node(n: int).
rel edge(a: int, b: int).
rel endpoint(n: int).
open rel confirm(n: int, ok: bool) key(n) asks "Confirm this endpoint".
rel confirmed(n: int).
endpoint(N) :- node(N), !edge(N, _).
confirmed(N) :- endpoint(N), confirm(N, true).
`
	e, err := cylog.NewEngine(cylog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ {
		e.AddFact("node", n)
	}
	e.AddFact("edge", 1, 2)
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 { // endpoints 2 and 3
		t.Fatalf("requests = %v", reqs)
	}
	if err := e.AddFact("edge", 3, 1); err != nil {
		t.Fatal(err)
	}
	reqs, err = e.RunIncremental(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.Facts("endpoint")); got != 1 {
		t.Fatalf("endpoint = %v, want only node 2", e.Facts("endpoint"))
	}
	if len(reqs) != 1 {
		t.Fatalf("requests after new edge = %v, want only node 2's", reqs)
	}
	if n, _ := reqs[0].Key()["n"].AsInt(); n != 2 {
		t.Errorf("surviving request = %v", reqs[0])
	}
	checkReference(t, e)
}

// TestRetractionFromScratchDifferential is the acceptance check of the
// retraction machinery on the approve/reject workload: across random item
// sets and random answer subsets — approvals that retract rejections and
// withdraw review requests, rejections that keep them, and reviews — every
// round's facts and pending requests equal the reference's from-scratch
// fixpoint on every configuration of the matrix.
func TestRetractionFromScratchDifferential(t *testing.T) {
	runDifferential(t, workload{
		program: approveRejectProgram,
		seed: func(a, _ []uint8, add addFunc) {
			for _, n := range a {
				add("item", int(n%8))
			}
		},
		answer: func(r cylog.OpenRequest) map[string]any {
			n, _ := r.KeyValues[0].AsInt()
			if r.Relation == "approve" {
				return map[string]any{"ok": n%3 != 0}
			}
			return map[string]any{"note": fmt.Sprintf("note %d", n)}
		},
	}, 3, 8)
}

// TestRetractionConcurrentStaging is the -race workout for retraction: worker
// goroutines stage answers into shared batches while the main loop commits
// them through RunIncremental, each commit retracting the freshly approved
// items' rejections while the next wave stages against the engine lock.
func TestRetractionConcurrentStaging(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(approveRejectProgram))
	if err != nil {
		t.Fatal(err)
	}
	const items = 60
	for n := 1; n <= items; n++ {
		e.AddFact("item", n)
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for rounds := 0; len(reqs) > 0 && rounds < 40; rounds++ {
		batch := e.NewAnswerBatch()
		var wg sync.WaitGroup
		const stagers = 4
		for w := 0; w < stagers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, r := range reqs {
					if i%stagers != w {
						continue
					}
					switch r.Relation {
					case "approve":
						batch.Answer(r.ID, map[string]any{"ok": true}) //nolint:errcheck
					case "review":
						// Review answers race against the approval that
						// withdraws their request: both staging-time and
						// commit-time rejections must stay per-item.
						batch.Answer(r.ID, map[string]any{"note": "checked"}) //nolint:errcheck
					}
				}
			}(w)
		}
		wg.Wait()
		if reqs, err = e.RunIncremental(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.Facts("approved")); got != items {
		t.Fatalf("approved = %d, want %d", got, items)
	}
	if got := len(e.Facts("rejected")); got != 0 {
		t.Fatalf("every rejection should be retracted, rejected = %v", e.Facts("rejected"))
	}
	if got := len(e.PendingRequests()); got != 0 {
		t.Fatalf("pending = %v", e.PendingRequests())
	}
	checkReference(t, e)
}
