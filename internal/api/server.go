// Package api is the service layer of the platform: a JSON/REST surface plus
// a WebSocket event stream over internal/platform, turning the in-process
// crowd loop into the HTTP service the paper's workers actually hit. Worker
// answers are staged through the platform's round-based ingress
// (Platform.StageAnswer → the engine's concurrent-safe AnswerBatch) and
// committed by a background group-commit deriver: staging wakes it, it
// commits at once, and whatever arrives during a commit forms the next
// round, so submission stays cheap while rounds grow with load.
//
// Backpressure: when a project's staging round holds QueueCapacity answers
// the fixpoint loop has fallen behind, and further submissions are refused
// with 429 Too Many Requests plus Retry-After (seconds, rounded up) and
// X-Retry-After-Ms (exact). Clients back off and retry; nothing is queued
// beyond the bound and nothing is silently dropped.
//
// Round contract: a successful submission returns the round number its
// answer was staged into. A "fixpoint" event on the WebSocket stream carries
// the committed round's number; observing round >= N proves the answer from
// round N is inserted, durable (when a WAL is attached) and reflected in the
// fixpoint. cmd/loadsim measures answer→fixpoint latency exactly this way.
//
// The HTTP path adds no evaluation semantics of its own — fixpoints and
// request ids reached through it are byte-identical to direct Engine calls
// (proved by TestHTTPPathMatchesDirectEngine). See docs/API.md for the wire
// reference.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api/wire"
	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Options configures a Server.
type Options struct {
	// QueueCapacity bounds each project's staged-but-uncommitted answers;
	// submissions beyond it get 429. Zero means DefaultQueueCapacity.
	QueueCapacity int
	// CommitInterval > 0 starts the background deriver, which commits a
	// round (incremental fixpoint + WAL) for a project as soon as answers or
	// facts are staged for it; the interval does not delay commits. It is
	// the backoff a 429 suggests (100ms when the deriver is off). Zero
	// disables the deriver — rounds then commit only via POST .../fixpoint,
	// which is what the differential tests use to make round boundaries
	// deterministic.
	CommitInterval time.Duration
	// UI, when set, serves every path outside /api/ — the server-rendered
	// internal/webui front end rides on the same listener as the API, which
	// answers every /api/ path it does not route with a JSON 404.
	UI http.Handler
}

// DefaultQueueCapacity bounds a project's ingress queue when Options leaves
// QueueCapacity zero.
const DefaultQueueCapacity = 4096

// Server is the HTTP service. It implements http.Handler.
type Server struct {
	p    *platform.Platform
	opts Options
	mux  *http.ServeMux
	hub  *hub

	unsub    func()
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewServer builds the service over an existing platform. Call Close when
// done to stop the deriver loop and detach from the platform's event stream.
func NewServer(p *platform.Platform, opts Options) *Server {
	if opts.QueueCapacity <= 0 {
		opts.QueueCapacity = DefaultQueueCapacity
	}
	s := &Server{
		p:    p,
		opts: opts,
		mux:  http.NewServeMux(),
		hub:  newHub(),
		stop: make(chan struct{}),
	}
	s.unsub = p.Subscribe(s.hub.publish)

	s.mux.HandleFunc("GET /api/v1/projects", s.handleProjectList)
	s.mux.HandleFunc("POST /api/v1/projects", s.handleProjectCreate)
	s.mux.HandleFunc("GET /api/v1/projects/{id}", s.handleProjectStatus)
	s.mux.HandleFunc("GET /api/v1/projects/{id}/tasks", s.handleTaskFeed)
	s.mux.HandleFunc("POST /api/v1/projects/{id}/answers", s.handleAnswer)
	s.mux.HandleFunc("POST /api/v1/projects/{id}/facts", s.handleFact)
	s.mux.HandleFunc("POST /api/v1/projects/{id}/fixpoint", s.handleFixpoint)
	s.mux.HandleFunc("GET /api/v1/projects/{id}/events", s.handleProjectEvents)
	s.mux.HandleFunc("GET /api/v1/events", s.handleAllEvents)
	s.mux.HandleFunc("/api/", s.handleAPINotFound)
	if opts.UI != nil {
		s.mux.Handle("/", opts.UI)
	}

	if opts.CommitInterval > 0 {
		s.wg.Add(1)
		go s.deriveLoop()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the deriver loop, detaches from the platform event stream and
// closes every WebSocket subscriber. The platform itself keeps running.
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.unsub()
	})
	s.wg.Wait()
}

// deriveLoop is the background fixpoint pump, a group-commit deriver. It
// sleeps until the platform signals staged work (Platform.Staged) and then
// commits one round for each project with staged answers or facts
// (Platform.StagedProjects): facts POSTed to /facts land in the engine, not
// in the round's batch, and need a commit too. Work staged while a commit
// runs signals again and forms the next round, which is committed as soon
// as the pass returns: rounds grow with load by themselves and no answer
// waits for a clock. One loop serves every project, so commits for
// different projects are serialized — matching the single-writer WAL
// discipline — while staging stays fully concurrent.
func (s *Server) deriveLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.p.Staged():
		}
		for _, id := range s.p.StagedProjects() {
			if _, err := s.p.CommitRound(id); err != nil {
				// Record through the platform event log, not the hub
				// directly: the failure must reach the event log
				// (Platform.Events) as well as currently connected
				// WebSocket clients — the hub gets it via the server's
				// platform subscription.
				s.p.Record(platform.Event{Kind: "commit-error", Project: id, Message: err.Error()})
			}
		}
	}
}

// ---- wire types ----------------------------------------------------------

// The request/response schemas live in the leaf package internal/api/wire so
// clients (crowdsim's service client, cmd/loadsim) can share them without
// importing the server. Aliased here so server code and its callers can stay
// on the api.X names.
type (
	TaskView             = wire.TaskView
	TaskFeed             = wire.TaskFeed
	AnswerRequest        = wire.AnswerRequest
	AnswerResponse       = wire.AnswerResponse
	FactRequest          = wire.FactRequest
	FixpointResponse     = wire.FixpointResponse
	QueueStatus          = wire.QueueStatus
	StatsView            = wire.StatsView
	WALStatus            = wire.WALStatus
	ProjectStatus        = wire.ProjectStatus
	CreateProjectRequest = wire.CreateProjectRequest
	StorageStatus        = wire.StorageStatus
	EventMessage         = wire.EventMessage
	errorBody            = wire.ErrorBody
)

// DialEvents connects to a server's WebSocket event stream; see
// wire.DialEvents.
var DialEvents = wire.DialEvents

// EventStream re-exports the client-side subscription type.
type EventStream = wire.EventStream

// ---- handlers ------------------------------------------------------------

func (s *Server) handleAPINotFound(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusNotFound, errorBody{Code: "not-found", Error: "no such API route: " + r.Method + " " + r.URL.Path})
}

func (s *Server) handleProjectList(w http.ResponseWriter, _ *http.Request) {
	admins := s.p.Projects.All()
	out := make([]ProjectStatus, 0, len(admins))
	for _, a := range admins {
		out = append(out, s.projectSummary(a))
	}
	writeJSON(w, http.StatusOK, map[string]any{"projects": out})
}

func (s *Server) handleProjectCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateProjectRequest
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "bad-json", Error: err.Error()})
		return
	}
	admin, err := s.p.RegisterProject(project.Description{
		ID:          project.ID(req.ID),
		Name:        req.Name,
		Requester:   req.Requester,
		Summary:     req.Summary,
		CyLogSource: req.CyLog,
		Storage:     req.Backend,
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "invalid-project", Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, s.projectSummary(admin))
}

func (s *Server) handleProjectStatus(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	admin, ok := s.p.Projects.Get(id)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: %s", project.ErrUnknownProject, id))
		return
	}
	st := s.projectSummary(admin)
	if eng := s.p.Engine(id); eng != nil {
		stats := eng.Stats()
		st.Stats = &StatsView{
			Iterations:      stats.Iterations,
			RuleEvaluations: stats.RuleEvaluations,
			DerivedFacts:    stats.DerivedFacts,
			OpenRequests:    stats.OpenRequests,
		}
		st.Queue = &QueueStatus{
			Staged:    s.p.StagedAnswers(id),
			Capacity:  s.opts.QueueCapacity,
			NextRound: s.p.NextRound(id),
		}
	}
	if ws, ok := s.p.WALStats(id); ok {
		st.WAL = &WALStatus{Appends: ws.Appends, Snapshots: ws.Snapshots, LastSeq: ws.LastSeq}
	}
	if bs, ok := s.p.BackendStats(id); ok {
		st.Storage = &StorageStatus{
			Backend:           bs.Backend,
			Relations:         bs.Relations,
			ResidentRelations: bs.ResidentRelations,
			ResidentBytes:     bs.ResidentBytes,
			BudgetBytes:       bs.BudgetBytes,
			Faults:            bs.Faults,
			Evictions:         bs.Evictions,
			SegmentWrites:     bs.SegmentWrites,
			SegmentBytes:      bs.SegmentBytes,
		}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) projectSummary(a *project.Admin) ProjectStatus {
	id := a.Description.ID
	st := ProjectStatus{
		ID:        string(id),
		Name:      a.Description.Name,
		Status:    string(a.Status),
		Requester: a.Description.Requester,
		Summary:   a.Description.Summary,
	}
	if eng := s.p.Engine(id); eng != nil {
		st.HasEngine = true
		st.PendingRequests = eng.PendingView().Len()
	}
	return st
}

func (s *Server) handleTaskFeed(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	eng, err := s.p.EngineFor(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	offset := queryInt(r, "offset", 0)
	limit := queryInt(r, "limit", 100)
	if limit <= 0 {
		limit = 100
	}
	// The page and the total come from one snapshot, so they agree even
	// while a commit publishes the next one.
	view := eng.PendingView()
	page := view.Page(offset, limit)
	feed := TaskFeed{Total: view.Len(), Offset: offset, Limit: limit, Tasks: make([]TaskView, 0, len(page))}
	for _, req := range page {
		feed.Tasks = append(feed.Tasks, taskView(req))
	}
	writeJSON(w, http.StatusOK, feed)
}

func taskView(req *cylog.OpenRequest) TaskView {
	key := make(map[string]any, len(req.KeyColumns))
	for i, c := range req.KeyColumns {
		key[c] = goValue(req.KeyValues[i])
	}
	return TaskView{
		ID:          req.ID,
		Relation:    req.Relation,
		Prompt:      req.Prompt,
		Scheme:      req.Scheme,
		Key:         key,
		OpenColumns: req.OpenColumns,
	}
}

// goValue converts a stored value to its natural JSON representation.
func goValue(v relstore.Value) any {
	switch v.Type() {
	case relstore.TypeInt:
		n, _ := v.AsInt()
		return n
	case relstore.TypeFloat:
		f, _ := v.AsFloat()
		return f
	case relstore.TypeBool:
		b, _ := v.AsBool()
		return b
	case relstore.TypeNull:
		return nil
	default:
		return v.AsString()
	}
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	var req AnswerRequest
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "bad-json", Error: err.Error()})
		return
	}
	if req.RequestID == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "bad-request", Error: "request_id is required"})
		return
	}
	// Admission control: refuse before staging when the round already holds
	// QueueCapacity answers. The check-then-stage is deliberately not atomic
	// — a burst can overshoot by the number of in-flight requests, which is
	// bounded and harmless; the point is that a stalled fixpoint loop makes
	// the service push back instead of buffering without limit.
	if s.p.StagedAnswers(id) >= s.opts.QueueCapacity {
		s.writeOverloaded(w)
		return
	}
	round, err := s.p.StageAnswer(id, req.RequestID, req.Values)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, AnswerResponse{Round: round, Queued: s.p.StagedAnswers(id)})
}

func (s *Server) handleFact(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	if _, err := s.p.EngineFor(id); err != nil {
		s.writeError(w, err)
		return
	}
	var req FactRequest
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "bad-json", Error: err.Error()})
		return
	}
	if req.Relation == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "bad-request", Error: "relation is required"})
		return
	}
	if err := s.p.AddFact(id, req.Relation, req.Values...); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "invalid-fact", Error: err.Error()})
		return
	}
	// Facts take effect at the next round commit (the deriver's, which the
	// fact wakes, or an explicit fixpoint), exactly like a direct AddFact
	// before RunIncremental. Before the project's first fixpoint nothing is
	// staged: the fact is loaded, and the first commit is an explicit
	// POST .../fixpoint.
	writeJSON(w, http.StatusAccepted, map[string]any{"ok": true})
}

func (s *Server) handleFixpoint(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	rc, err := s.p.CommitRound(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FixpointResponse{
		Round:      rc.Seq,
		Answers:    rc.Answers,
		Skipped:    rc.Skipped,
		Pending:    rc.Pending.Len(),
		DurationNS: rc.Duration.Nanoseconds(),
	})
}

func (s *Server) handleProjectEvents(w http.ResponseWriter, r *http.Request) {
	id := project.ID(r.PathValue("id"))
	if _, ok := s.p.Projects.Get(id); !ok {
		s.writeError(w, fmt.Errorf("%w: %s", project.ErrUnknownProject, id))
		return
	}
	s.serveEvents(w, r, id)
}

func (s *Server) handleAllEvents(w http.ResponseWriter, r *http.Request) {
	s.serveEvents(w, r, "")
}

// serveEvents upgrades to WebSocket and streams events until the client
// disconnects, the subscriber is cancelled, or the server closes. It
// subscribes before the upgrade: the client's dial returns as soon as the 101
// response is flushed, so every event published after that must already find
// the subscription. A failed upgrade cancels it through the deferred cancel.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request, id project.ID) {
	ch, cancel := s.hub.subscribe(id)
	defer cancel()
	conn, err := wire.UpgradeWebSocket(w, r)
	if err != nil {
		// A pre-hijack failure leaves w usable, so a plain HTTP error works.
		// After a hijack (ErrHijacked) the TCP connection is already closed
		// and anything written to w would be silently discarded.
		if !errors.Is(err, wire.ErrHijacked) {
			writeJSON(w, http.StatusBadRequest, errorBody{Code: "bad-upgrade", Error: err.Error()})
		}
		return
	}
	defer conn.Close()
	// Reader: the only expected client frames are pings and close. Its exit
	// (close frame or dropped TCP connection) cancels the subscription,
	// which ends the writer's range loop.
	go func() {
		for {
			if _, err := conn.ReadText(); err != nil {
				cancel()
				return
			}
		}
	}()
	for {
		select {
		case <-s.stop:
			return
		case msg, ok := <-ch:
			if !ok {
				return
			}
			payload, err := json.Marshal(msg)
			if err != nil {
				continue
			}
			if err := conn.WriteText(payload); err != nil {
				return
			}
		}
	}
}

// ---- helpers -------------------------------------------------------------

// writeError maps platform/engine errors onto HTTP statuses. ErrRequestClosed
// wraps ErrUnknownRequest, so the closed case must be tested first.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, project.ErrUnknownProject):
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-project", Error: err.Error()})
	case errors.Is(err, platform.ErrNoEngine):
		writeJSON(w, http.StatusConflict, errorBody{Code: "no-engine", Error: err.Error()})
	case errors.Is(err, cylog.ErrRequestClosed):
		writeJSON(w, http.StatusConflict, errorBody{Code: "request-closed", Error: err.Error()})
	case errors.Is(err, cylog.ErrUnknownRequest):
		writeJSON(w, http.StatusNotFound, errorBody{Code: "unknown-request", Error: err.Error()})
	case errors.Is(err, cylog.ErrDuplicateAnswer):
		writeJSON(w, http.StatusConflict, errorBody{Code: "duplicate-answer", Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Code: "invalid", Error: err.Error()})
	}
}

// writeOverloaded emits the 429 backpressure response. The hint is the
// deriver's CommitInterval, or 100ms when the deriver is off. Retry-After
// is in whole seconds per RFC 9110 (rounded up, so sub-second backoffs do
// not become "retry immediately"); X-Retry-After-Ms carries the exact hint.
func (s *Server) writeOverloaded(w http.ResponseWriter) {
	hint := s.opts.CommitInterval
	if hint <= 0 {
		hint = 100 * time.Millisecond
	}
	secs := int(math.Ceil(hint.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(hint.Milliseconds(), 10))
	writeJSON(w, http.StatusTooManyRequests, errorBody{
		Code:  "overloaded",
		Error: fmt.Sprintf("ingress queue full (%d staged answers); retry after the next fixpoint", s.opts.QueueCapacity),
	})
}

// decodeJSON decodes a request body of at most 1 MiB that holds exactly one
// JSON document. Anything but whitespace after the document is rejected: the
// next token must be io.EOF. (Decoder.More would miss a stray '}' or ']',
// since it reports false before a closing delimiter.)
func decodeJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid JSON body: trailing data after document")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(body)
}

func queryInt(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return def
	}
	return n
}
