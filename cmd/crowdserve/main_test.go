package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api"
	"github.com/crowd4u/crowd4u-go/internal/api/wire"
)

// serve sends one request to h and returns the recorded response. A body is
// sent as JSON, or as a form when it is a string.
func serve(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	switch b := body.(type) {
	case nil:
		req = httptest.NewRequest(method, path, nil)
	case string:
		req = httptest.NewRequest(method, path, strings.NewReader(b))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		req = httptest.NewRequest(method, path, bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServedRoutes drives crowdserve's composition, the API server with the
// web UI mounted under it, with the flags' defaults. Every route must be
// answered by its own handler: with the status that handler gives, and
// never with the API's not-found body, which a route shadowed by the API's
// /api/ catch-all gets.
func TestServedRoutes(t *testing.T) {
	srv, _, err := newServer(config{
		queue: api.DefaultQueueCapacity, commitInterval: 25 * time.Millisecond,
		demo: true, population: 25, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	check := func(method, path string, body any, want int) *httptest.ResponseRecorder {
		t.Helper()
		rec := serve(t, srv, method, path, body)
		if rec.Code != want || strings.Contains(rec.Body.String(), `"code":"not-found"`) {
			t.Fatalf("%s %s = %d %s, want %d from its own handler", method, path, rec.Code, rec.Body.String(), want)
		}
		return rec
	}

	const demo = "/api/v1/projects/demo-labels"
	rec := check("GET", "/api/v1/projects", nil, http.StatusOK)
	var list struct{ Projects []wire.ProjectStatus }
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Projects) != 1 || list.Projects[0].ID != "demo-labels" {
		t.Fatalf("project list = %s, want demo-labels", rec.Body.String())
	}
	for i := 1; i <= 3; i++ {
		check("POST", demo+"/facts", wire.FactRequest{Relation: "item", Values: []any{i}}, http.StatusAccepted)
	}
	check("POST", demo+"/fixpoint", nil, http.StatusOK)
	check("GET", demo, nil, http.StatusOK)
	check("GET", demo+"/tasks", nil, http.StatusOK)
	check("POST", demo+"/answers", wire.AnswerRequest{RequestID: "label|1", Values: map[string]any{"ok": true}}, http.StatusAccepted)
	check("POST", "/api/v1/projects", wire.CreateProjectRequest{ID: "second", Name: "Second", CyLog: demoProgram}, http.StatusCreated)
	// Without an upgrade request the event streams refuse with their own
	// bad-upgrade error.
	check("GET", demo+"/events", nil, http.StatusBadRequest)
	check("GET", "/api/v1/events", nil, http.StatusBadRequest)

	for _, path := range []string{"/", "/admin/projects", "/admin/projects/new", "/admin/projects/demo-labels", "/workers/sim-0000"} {
		if rec := check("GET", path, nil, http.StatusOK); !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/html") {
			t.Fatalf("GET %s content type %q, want the HTML page", path, rec.Header().Get("Content-Type"))
		}
	}
	if rec := check("POST", "/admin/cycle", "", http.StatusSeeOther); rec.Header().Get("Location") != "/" {
		t.Fatalf("cycle redirects to %q, want the dashboard", rec.Header().Get("Location"))
	}
	// The cycle generated the demo project's tasks: its page links them.
	rec = check("GET", "/admin/projects/demo-labels", nil, http.StatusOK)
	link := regexp.MustCompile(`href="(/tasks/[^"]+)"`).FindStringSubmatch(rec.Body.String())
	if link == nil {
		t.Fatalf("the demo project page lists no task after a cycle: %s", rec.Body.String())
	}
	check("GET", link[1], nil, http.StatusOK)
}
