package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
)

// TestHTTPPathMatchesDirectEngine is the service-layer differential: the
// same workload driven once through the HTTP surface (facts + answers +
// fixpoint endpoints) and once through direct Engine calls must produce
// byte-identical facts and pending request ids after every round. The HTTP
// path may add transport, queueing and rounds — it may not add semantics.
func TestHTTPPathMatchesDirectEngine(t *testing.T) {
	const items = 12

	// Direct side: a bare engine driven by Engine calls only.
	direct, err := cylog.NewEngine(cylog.MustParse(labelingProgram))
	if err != nil {
		t.Fatal(err)
	}

	// HTTP side: a platform-backed server, no background deriver so round
	// boundaries are exactly the explicit fixpoint calls.
	p := platform.New()
	if _, err := p.RegisterProject(project.Description{
		ID: "labels", Name: "Labeling", CyLogSource: labelingProgram,
	}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Round 1: seed items on both sides, run to fixpoint.
	for i := 1; i <= items; i++ {
		if err := direct.AddFact("item", i); err != nil {
			t.Fatal(err)
		}
		resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/facts",
			FactRequest{Relation: "item", Values: []any{i}}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fact %d: status %d", i, resp.StatusCode)
		}
	}
	directPending, err := direct.Run()
	if err != nil {
		t.Fatal(err)
	}
	do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, nil)
	compareStates(t, "after seeding", direct, p.Engine("labels"))

	// Rounds 2..4: answer deterministic waves through both paths. Waves mix
	// true and false answers so both insertion and the negation-backed
	// flagged relation (retraction on the true answers) are exercised.
	for round := 0; round < 3; round++ {
		var feed TaskFeed
		do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks?limit=1000", nil, &feed)
		if len(feed.Tasks) != len(directPending) {
			t.Fatalf("round %d: feed has %d tasks, direct has %d pending", round, len(feed.Tasks), len(directPending))
		}
		wave := len(feed.Tasks)/2 + 1
		if wave > len(feed.Tasks) {
			wave = len(feed.Tasks)
		}
		batch := direct.NewAnswerBatch()
		for i := 0; i < wave; i++ {
			ok := i%2 == 0
			// Same request id on both sides: the feed is sorted by id, and
			// so is direct.Run's pending slice.
			if feed.Tasks[i].ID != directPending[i].ID {
				t.Fatalf("round %d: request id %q via HTTP vs %q direct", round, feed.Tasks[i].ID, directPending[i].ID)
			}
			if err := batch.Answer(directPending[i].ID, map[string]any{"ok": ok}); err != nil {
				t.Fatal(err)
			}
			resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
				AnswerRequest{RequestID: feed.Tasks[i].ID, Values: map[string]any{"ok": ok}}, nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("round %d answer %d: status %d", round, i, resp.StatusCode)
			}
		}
		if _, err := direct.RunIncremental(batch); err != nil {
			t.Fatal(err)
		}
		directPending = direct.PendingRequests()
		do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, nil)
		compareStates(t, fmt.Sprintf("after answer round %d", round), direct, p.Engine("labels"))
	}
}

// compareStates requires byte-identical facts per relation and identical
// pending request ids between the two engines, and the served engine's facts
// and pending requests to equal the from-scratch reference's.
func compareStates(t *testing.T, when string, direct, viaHTTP *cylog.Engine) {
	t.Helper()
	for _, rel := range []string{"item", "label", "labeled", "flagged"} {
		if d, h := factStrings(direct, rel), factStrings(viaHTTP, rel); !equalStrings(d, h) {
			t.Fatalf("%s: relation %s diverged\ndirect: %v\nhttp:   %v", when, rel, d, h)
		}
	}
	d, h := requestIDs(direct), requestIDs(viaHTTP)
	if !equalStrings(d, h) {
		t.Fatalf("%s: pending requests diverged\ndirect: %v\nhttp:   %v", when, d, h)
	}
	if err := reference.Check(viaHTTP, reference.BaseFacts(viaHTTP)); err != nil {
		t.Fatalf("%s: served engine differs from the from-scratch reference: %v", when, err)
	}
}

func factStrings(e *cylog.Engine, rel string) []string {
	facts := e.Facts(rel)
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = fmt.Sprint(f)
	}
	sort.Strings(out)
	return out
}

func requestIDs(e *cylog.Engine) []string {
	reqs := e.PendingRequests()
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.ID
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
