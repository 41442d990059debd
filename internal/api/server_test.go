package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
)

// labelingProgram is the service-layer test workload: a flat labeling
// pipeline with one open request per item, a positive consequence per "true"
// answer and a negation-derived flag for everything not yet labeled — small
// enough to reason about exactly, rich enough to exercise retraction when
// answers land.
const labelingProgram = `
rel item(id: int).
open rel label(id: int, ok: bool) key(id) asks "Is this item acceptable?".
rel labeled(id: int).
rel flagged(id: int).

labeled(I) :- item(I), label(I, true).
flagged(I) :- item(I), !labeled(I).
`

// newTestService builds a platform with one labeling project and an API
// server over it, returning the test HTTP server and the platform.
func newTestService(t *testing.T, opts Options) (*httptest.Server, *platform.Platform) {
	t.Helper()
	p := platform.New()
	if _, err := p.RegisterProject(project.Description{
		ID:          "labels",
		Name:        "Labeling",
		CyLogSource: labelingProgram,
	}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, p
}

// do issues a JSON request and decodes the JSON response into out (when
// non-nil), returning the raw response.
func do(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var payload io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		payload = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// seedItems adds n item facts over HTTP and commits a round so requests are
// pending.
func seedItems(t *testing.T, base string, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		resp := do(t, "POST", base+"/api/v1/projects/labels/facts",
			FactRequest{Relation: "item", Values: []any{i}}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fact %d: status %d", i, resp.StatusCode)
		}
	}
	var fp FixpointResponse
	resp := do(t, "POST", base+"/api/v1/projects/labels/fixpoint", nil, &fp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fixpoint: status %d", resp.StatusCode)
	}
	if fp.Pending != n {
		t.Fatalf("fixpoint left %d pending requests, want %d", fp.Pending, n)
	}
}

func TestProjectLifecycleAndFeed(t *testing.T) {
	ts, _ := newTestService(t, Options{})
	seedItems(t, ts.URL, 5)

	// Register a second project through the API.
	var created ProjectStatus
	resp := do(t, "POST", ts.URL+"/api/v1/projects", CreateProjectRequest{
		Name: "Second", CyLog: labelingProgram,
	}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if !created.HasEngine || created.ID == "" {
		t.Fatalf("create: got %+v, want engine-backed project with id", created)
	}

	var list struct {
		Projects []ProjectStatus `json:"projects"`
	}
	do(t, "GET", ts.URL+"/api/v1/projects", nil, &list)
	if len(list.Projects) != 2 {
		t.Fatalf("list: %d projects, want 2", len(list.Projects))
	}

	var st ProjectStatus
	do(t, "GET", ts.URL+"/api/v1/projects/labels", nil, &st)
	if st.PendingRequests != 5 || st.Queue == nil || st.Queue.NextRound != 2 {
		t.Fatalf("status: %+v, want 5 pending and next round 2", st)
	}
	if st.Stats == nil || st.Stats.DerivedFacts == 0 {
		t.Fatalf("status: missing engine stats: %+v", st.Stats)
	}

	// Paginated feed: offsets split the request set without overlap.
	var page1, page2 TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks?limit=3", nil, &page1)
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks?limit=3&offset=3", nil, &page2)
	if page1.Total != 5 || len(page1.Tasks) != 3 || len(page2.Tasks) != 2 {
		t.Fatalf("pagination: total=%d pages %d/%d, want 5 and 3/2", page1.Total, len(page1.Tasks), len(page2.Tasks))
	}
	seen := map[string]bool{}
	for _, tv := range append(page1.Tasks, page2.Tasks...) {
		if tv.Relation != "label" || len(tv.OpenColumns) != 1 || tv.OpenColumns[0] != "ok" {
			t.Fatalf("task view: %+v", tv)
		}
		if seen[tv.ID] {
			t.Fatalf("pages overlap on %s", tv.ID)
		}
		seen[tv.ID] = true
	}
}

// TestFeedPagesMatchPendingRequests pages the feed of 300 pending requests,
// after a round that closed some of them, with offsets and limits whose
// windows straddle the published view's chunks (at most 128 requests each),
// run past its end, or start beyond it. Every page must be the same window
// of Engine.PendingRequests, and Total and the project status must count the
// whole view.
func TestFeedPagesMatchPendingRequests(t *testing.T) {
	ts, p := newTestService(t, Options{})
	eng := p.Engine("labels")
	const items = 320
	for i := 1; i <= items; i++ {
		if err := eng.AddFact("item", i); err != nil {
			t.Fatal(err)
		}
	}
	do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, nil)
	for i := 1; i <= items; i += 16 {
		if _, err := p.StageAnswer("labels", fmt.Sprintf("label|%d", i), map[string]any{"ok": i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	var fp FixpointResponse
	do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, &fp)
	pending := eng.PendingRequests()
	if fp.Pending != items-items/16 || len(pending) != fp.Pending {
		t.Fatalf("fixpoint reports %d pending and the engine %d, want %d", fp.Pending, len(pending), items-items/16)
	}
	var st ProjectStatus
	do(t, "GET", ts.URL+"/api/v1/projects/labels", nil, &st)
	if st.PendingRequests != len(pending) {
		t.Fatalf("status counts %d pending requests, want %d", st.PendingRequests, len(pending))
	}
	for offset := 0; offset <= len(pending)+20; offset += 23 {
		for _, limit := range []int{1, 50, 129, 400} {
			var feed TaskFeed
			do(t, "GET", fmt.Sprintf("%s/api/v1/projects/labels/tasks?offset=%d&limit=%d", ts.URL, offset, limit), nil, &feed)
			want := pending[min(offset, len(pending)):min(offset+limit, len(pending))]
			if feed.Total != len(pending) || feed.Offset != offset || feed.Limit != limit || len(feed.Tasks) != len(want) {
				t.Fatalf("offset %d limit %d: total %d, %d tasks; want total %d, %d tasks", offset, limit, feed.Total, len(feed.Tasks), len(pending), len(want))
			}
			for i, tv := range feed.Tasks {
				if tv.ID != want[i].ID {
					t.Fatalf("offset %d limit %d: task %d is %s, want %s", offset, limit, i, tv.ID, want[i].ID)
				}
			}
		}
	}
}

func TestAnswerFlow(t *testing.T) {
	ts, p := newTestService(t, Options{})
	seedItems(t, ts.URL, 3)

	var feed TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks", nil, &feed)

	var ar AnswerResponse
	resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
		AnswerRequest{RequestID: feed.Tasks[0].ID, Values: map[string]any{"ok": true}}, &ar)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("answer: status %d", resp.StatusCode)
	}
	if ar.Round != 2 || ar.Queued != 1 {
		t.Fatalf("answer: %+v, want round 2 with 1 queued", ar)
	}

	var fp FixpointResponse
	do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, &fp)
	if fp.Round != 2 || fp.Answers != 1 || fp.Skipped != 0 || fp.Pending != 2 {
		t.Fatalf("fixpoint: %+v", fp)
	}
	eng := p.Engine("labels")
	if got := len(eng.Facts("labeled")); got != 1 {
		t.Fatalf("labeled facts = %d, want 1", got)
	}
	if got := len(eng.Facts("flagged")); got != 2 {
		t.Fatalf("flagged facts = %d, want 2 (retraction removed the answered item's flag)", got)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, p := newTestService(t, Options{})
	if _, err := p.RegisterProject(project.Description{ID: "no-engine", Name: "Engineless"}); err != nil {
		t.Fatal(err)
	}
	seedItems(t, ts.URL, 2)
	var feed TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks", nil, &feed)
	answered := feed.Tasks[0].ID

	// Answer + commit so `answered` is closed for the retry cases below.
	do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
		AnswerRequest{RequestID: answered, Values: map[string]any{"ok": true}}, nil)
	do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, nil)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		raw    string // non-JSON body, sent verbatim when set
		status int
		code   string
	}{
		{name: "malformed json", method: "POST", path: "/api/v1/projects/labels/answers",
			raw: "{not json", status: http.StatusBadRequest, code: "bad-json"},
		{name: "trailing garbage", method: "POST", path: "/api/v1/projects/labels/answers",
			raw: `{"request_id":"x","values":{}} extra`, status: http.StatusBadRequest, code: "bad-json"},
		{name: "trailing garbage brace", method: "POST", path: "/api/v1/projects/labels/answers",
			raw: `{"request_id":"x","values":{}}}`, status: http.StatusBadRequest, code: "bad-json"},
		{name: "trailing garbage bracket", method: "POST", path: "/api/v1/projects/labels/answers",
			raw: `{"request_id":"x","values":{}}]`, status: http.StatusBadRequest, code: "bad-json"},
		{name: "trailing garbage second document", method: "POST", path: "/api/v1/projects/labels/answers",
			raw: `{"request_id":"x","values":{}} {}`, status: http.StatusBadRequest, code: "bad-json"},
		{name: "fact trailing garbage brace", method: "POST", path: "/api/v1/projects/labels/facts",
			raw: `{"relation":"item","values":[99]}}`, status: http.StatusBadRequest, code: "bad-json"},
		{name: "fact trailing garbage bracket", method: "POST", path: "/api/v1/projects/labels/facts",
			raw: `{"relation":"item","values":[99]}]`, status: http.StatusBadRequest, code: "bad-json"},
		{name: "missing request id", method: "POST", path: "/api/v1/projects/labels/answers",
			body: AnswerRequest{Values: map[string]any{"ok": true}}, status: http.StatusBadRequest, code: "bad-request"},
		{name: "unknown project", method: "POST", path: "/api/v1/projects/ghost/answers",
			body:   AnswerRequest{RequestID: "r", Values: map[string]any{"ok": true}},
			status: http.StatusNotFound, code: "unknown-project"},
		{name: "unknown project status", method: "GET", path: "/api/v1/projects/ghost",
			status: http.StatusNotFound, code: "unknown-project"},
		{name: "engineless project feed", method: "GET", path: "/api/v1/projects/no-engine/tasks",
			status: http.StatusConflict, code: "no-engine"},
		{name: "engineless project answer", method: "POST", path: "/api/v1/projects/no-engine/answers",
			body:   AnswerRequest{RequestID: "r", Values: map[string]any{"ok": true}},
			status: http.StatusConflict, code: "no-engine"},
		{name: "unknown request", method: "POST", path: "/api/v1/projects/labels/answers",
			body:   AnswerRequest{RequestID: "label/999", Values: map[string]any{"ok": true}},
			status: http.StatusNotFound, code: "unknown-request"},
		{name: "closed request", method: "POST", path: "/api/v1/projects/labels/answers",
			body:   AnswerRequest{RequestID: answered, Values: map[string]any{"ok": false}},
			status: http.StatusConflict, code: "request-closed"},
		{name: "bad fact relation", method: "POST", path: "/api/v1/projects/labels/facts",
			body: FactRequest{Relation: "nope", Values: []any{1}}, status: http.StatusBadRequest, code: "invalid-fact"},
		{name: "derived fact rejected", method: "POST", path: "/api/v1/projects/labels/facts",
			body: FactRequest{Relation: "labeled", Values: []any{1}}, status: http.StatusBadRequest, code: "invalid-fact"},
		{name: "fact float past the int range", method: "POST", path: "/api/v1/projects/labels/facts",
			raw: `{"relation":"item","values":[1e300]}`, status: http.StatusBadRequest, code: "invalid-fact"},
		{name: "unknown route", method: "GET", path: "/api/v1/nope",
			status: http.StatusNotFound, code: "not-found"},
		{name: "events without upgrade", method: "GET", path: "/api/v1/projects/labels/events",
			status: http.StatusBadRequest, code: "bad-upgrade"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var eb errorBody
			if tc.raw != "" {
				r, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				defer r.Body.Close()
				if err := json.NewDecoder(r.Body).Decode(&eb); err != nil {
					t.Fatal(err)
				}
				resp = r
			} else {
				resp = do(t, tc.method, ts.URL+tc.path, tc.body, &eb)
			}
			if resp.StatusCode != tc.status || eb.Code != tc.code {
				t.Fatalf("got status %d code %q (%s), want %d %q", resp.StatusCode, eb.Code, eb.Error, tc.status, tc.code)
			}
		})
	}

	// Duplicate answer within one round maps to 409.
	var feed2 TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks", nil, &feed2)
	id := feed2.Tasks[0].ID
	do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
		AnswerRequest{RequestID: id, Values: map[string]any{"ok": true}}, nil)
	var eb errorBody
	resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
		AnswerRequest{RequestID: id, Values: map[string]any{"ok": false}}, &eb)
	if resp.StatusCode != http.StatusConflict || eb.Code != "duplicate-answer" {
		t.Fatalf("duplicate answer: status %d code %q", resp.StatusCode, eb.Code)
	}
}

// TestAdmissionControl fills a round to QueueCapacity with the deriver off:
// the next answer gets 429 with the hint of a server without a deriver,
// 100ms. A server with a deriver hints its CommitInterval.
func TestAdmissionControl(t *testing.T) {
	ts, _ := newTestService(t, Options{QueueCapacity: 2})
	seedItems(t, ts.URL, 4)
	var feed TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks", nil, &feed)

	for i := 0; i < 2; i++ {
		resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
			AnswerRequest{RequestID: feed.Tasks[i].ID, Values: map[string]any{"ok": true}}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("answer %d: status %d", i, resp.StatusCode)
		}
	}
	var eb errorBody
	resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
		AnswerRequest{RequestID: feed.Tasks[2].ID, Values: map[string]any{"ok": true}}, &eb)
	if resp.StatusCode != http.StatusTooManyRequests || eb.Code != "overloaded" {
		t.Fatalf("over capacity: status %d code %q", resp.StatusCode, eb.Code)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (100ms rounds up)", got)
	}
	if got := resp.Header.Get("X-Retry-After-Ms"); got != "100" {
		t.Fatalf("X-Retry-After-Ms = %q, want \"100\"", got)
	}
	srv := NewServer(platform.New(), Options{CommitInterval: 1500 * time.Millisecond})
	srv.Close()
	rec := httptest.NewRecorder()
	srv.writeOverloaded(rec)
	if got, ms := rec.Header().Get("Retry-After"), rec.Header().Get("X-Retry-After-Ms"); got != "2" || ms != "1500" {
		t.Fatalf("with a 1500ms CommitInterval: Retry-After %q, X-Retry-After-Ms %q; want \"2\" and \"1500\"", got, ms)
	}

	// A committed round drains the queue; admission reopens.
	do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, nil)
	resp = do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
		AnswerRequest{RequestID: feed.Tasks[2].ID, Values: map[string]any{"ok": true}}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("after fixpoint: status %d, want 202", resp.StatusCode)
	}
}

func TestEventStream(t *testing.T) {
	ts, _ := newTestService(t, Options{})
	stream, err := DialEvents(ts.URL, "labels")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	seedItems(t, ts.URL, 2)

	deadline := time.After(5 * time.Second)
	got := make(chan EventMessage, 1)
	go func() {
		for {
			msg, err := stream.Next()
			if err != nil {
				return
			}
			if msg.Kind == "fixpoint" {
				got <- msg
				return
			}
		}
	}()
	select {
	case msg := <-got:
		if msg.Project != "labels" || msg.Round != 1 {
			t.Fatalf("fixpoint event: %+v, want project labels round 1", msg)
		}
	case <-deadline:
		t.Fatal("no fixpoint event within 5s")
	}
}

// TestEventStreamDeliversEventsAfterDial pins the subscribe-before-upgrade
// order of the event endpoints: an event recorded right after DialEvents
// returns must reach the stream. The client's dial returns once the 101
// response arrives, so a server that subscribed only after flushing it lost
// every event published in between.
func TestEventStreamDeliversEventsAfterDial(t *testing.T) {
	ts, p := newTestService(t, Options{})
	for i := 0; i < 200; i++ {
		stream, err := DialEvents(ts.URL, "labels")
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("probe %d", i)
		p.Record(platform.Event{Kind: "probe", Project: "labels", Message: want})
		got := make(chan EventMessage, 1)
		go func() {
			if msg, err := stream.Next(); err == nil {
				got <- msg
			}
		}()
		select {
		case msg := <-got:
			if msg.Kind != "probe" || msg.Message != want {
				t.Fatalf("dial %d: got %+v, want the %q probe", i, msg, want)
			}
		case <-time.After(2 * time.Second):
			stream.Close()
			t.Fatalf("dial %d: the event recorded after DialEvents returned never arrived", i)
		}
		stream.Close()
	}
}

func TestBackgroundDeriverCommits(t *testing.T) {
	ts, p := newTestService(t, Options{CommitInterval: 5 * time.Millisecond})
	seedItems(t, ts.URL, 2)
	var feed TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks", nil, &feed)
	for _, tv := range feed.Tasks {
		resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
			AnswerRequest{RequestID: tv.ID, Values: map[string]any{"ok": true}}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("answer: status %d", resp.StatusCode)
		}
	}
	eng := p.Engine("labels")
	deadline := time.Now().Add(5 * time.Second)
	for len(eng.Facts("labeled")) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("deriver never committed: %d labeled facts", len(eng.Facts("labeled")))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestValueCoercion proves JSON's number decoding (everything float64)
// round-trips through the schema: an integral float lands in an int column.
func TestValueCoercion(t *testing.T) {
	ts, p := newTestService(t, Options{})
	seedItems(t, ts.URL, 1)
	var feed TaskFeed
	do(t, "GET", ts.URL+"/api/v1/projects/labels/tasks", nil, &feed)
	// The key column is int; the feed must render it as a JSON number.
	if v, ok := feed.Tasks[0].Key["id"].(float64); !ok || v != 1 {
		t.Fatalf("feed key = %#v, want numeric 1", feed.Tasks[0].Key["id"])
	}
	resp := do(t, "POST", ts.URL+"/api/v1/projects/labels/answers",
		AnswerRequest{RequestID: feed.Tasks[0].ID, Values: map[string]any{"ok": true}}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("answer: status %d", resp.StatusCode)
	}
	do(t, "POST", ts.URL+"/api/v1/projects/labels/fixpoint", nil, nil)
	if got := len(p.Engine("labels").Facts("labeled")); got != 1 {
		t.Fatalf("labeled facts = %d, want 1", got)
	}
}

// TestCreateProjectBackendAndInterval covers the creation request: its
// backend override selects the relstore backend for the project's engine,
// and a commit_interval_ms an older client still sends is ignored, as is
// every unknown field.
func TestCreateProjectBackendAndInterval(t *testing.T) {
	p := platform.New()
	p.SetStorage(platform.StorageOptions{Dir: t.TempDir(), BudgetBytes: 1 << 20})
	srv := NewServer(p, Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	body := map[string]any{"id": "diskproj", "name": "Disk project", "cylog": labelingProgram, "backend": "disk", "commit_interval_ms": 250}
	resp := do(t, "POST", ts.URL+"/api/v1/projects", body, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var st ProjectStatus
	do(t, "GET", ts.URL+"/api/v1/projects/diskproj", nil, &st)
	if st.Storage == nil || st.Storage.Backend != "disk" {
		t.Fatalf("status storage = %+v, want disk backend", st.Storage)
	}

	// An unknown backend is a validation error, not a registered project.
	resp = do(t, "POST", ts.URL+"/api/v1/projects", CreateProjectRequest{
		Name: "Bad", CyLog: labelingProgram, Backend: "papyrus",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad backend: status %d, want 400", resp.StatusCode)
	}
}

// TestNoProjectUpdateRoute pins that projects have no PATCH route: a PATCH
// gets the API's JSON 404 and changes nothing.
func TestNoProjectUpdateRoute(t *testing.T) {
	ts, _ := newTestService(t, Options{})
	var eb errorBody
	resp := do(t, "PATCH", ts.URL+"/api/v1/projects/labels", map[string]any{"commit_interval_ms": 400}, &eb)
	if resp.StatusCode != http.StatusNotFound || eb.Code != "not-found" {
		t.Fatalf("PATCH: status %d code %q, want 404 not-found", resp.StatusCode, eb.Code)
	}
}

// TestFactIntoOpenRelationClosesRequest POSTs a whole fact into an open
// relation while its request is pending: the request closes, the engine
// agrees with the reference evaluator, and an answer to the request is
// refused as closed instead of storing a second fact under its key.
func TestFactIntoOpenRelationClosesRequest(t *testing.T) {
	ts, p := newTestService(t, Options{})
	seedItems(t, ts.URL, 2)
	base := ts.URL + "/api/v1/projects/labels"
	if resp := do(t, "POST", base+"/facts", FactRequest{Relation: "label", Values: []any{1, true}}, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fact: status %d", resp.StatusCode)
	}
	var fp FixpointResponse
	do(t, "POST", base+"/fixpoint", nil, &fp)
	if fp.Pending != 1 {
		t.Fatalf("fixpoint left %d pending requests, want 1", fp.Pending)
	}
	eng := p.Engine("labels")
	if err := reference.Check(eng, reference.BaseFacts(eng)); err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	resp := do(t, "POST", base+"/answers", AnswerRequest{RequestID: "label|1", Values: map[string]any{"ok": false}}, &eb)
	if resp.StatusCode != http.StatusConflict || eb.Code != "request-closed" {
		t.Fatalf("answer to label|1: status %d code %q, want 409 request-closed", resp.StatusCode, eb.Code)
	}
	if got := len(eng.Facts("label")); got != 1 {
		t.Fatalf("label holds %d facts, want 1", got)
	}
}

func TestUIFallback(t *testing.T) {
	p := platform.New()
	ui := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "dashboard")
	})
	srv := NewServer(p, Options{UI: ui})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "dashboard" {
		t.Fatalf("UI fallback served %q", body)
	}
	// API routes still win over the fallback.
	r2, err := http.Get(ts.URL + "/api/v1/projects")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if ct := r2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("API route content type %q", ct)
	}
}
