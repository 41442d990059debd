package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api"
	"github.com/crowd4u/crowd4u-go/internal/api/wire"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/wal"
)

// service is the real crowd service hosted in-process on a loopback
// listener: api.Server over platform.Platform with crowdserve's served
// defaults, one project, and the clients and event stream that drive it.
type service struct {
	p       *platform.Platform
	srv     *api.Server
	hs      *http.Server
	served  chan struct{}
	clients []*client
	events  *eventLog
	log     *wal.Log // durable workloads only
	walDir  string
	tr      *tracer // nil on untraced runs
}

// startService hosts the service, creates the workload's project, seeds it
// and brings it to its first fixpoint. dir holds the durable workload's
// WAL and segments. With a tracer, the tracer's handler wraps the API, the
// tracer's deriver replaces the server's, and the tracer observes the WAL
// and the platform's events.
func startService(w workload, dir string, tr *tracer) (svc *service, err error) {
	p := platform.New()
	storage := platform.StorageOptions{Backend: "memory"}
	if w.durable {
		storage = platform.StorageOptions{Backend: "disk", Dir: filepath.Join(dir, "segments")}
	}
	p.SetStorage(storage)
	opts := api.Options{CommitInterval: commitInterval}
	if tr != nil {
		opts.CommitInterval = 0
	}
	srv := api.NewServer(p, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tr.handler(srv)
	}
	svc = &service{p: p, srv: srv, hs: &http.Server{Handler: h}, served: make(chan struct{}), tr: tr}
	go func() {
		defer close(svc.served)
		svc.hs.Serve(ln)
	}()
	defer func() {
		if err != nil {
			svc.stop()
			svc.closeLog()
		}
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < senders; i++ {
		svc.clients = append(svc.clients, newClient(base, tr))
	}
	c := svc.clients[0]

	if _, err := c.do(http.MethodPost, "/api/v1/projects", wire.CreateProjectRequest{
		ID: projectID, Name: w.name, CyLog: w.program,
	}, nil, "other"); err != nil {
		return svc, fmt.Errorf("creating project: %w", err)
	}
	if w.durable {
		svc.walDir = filepath.Join(dir, "wal")
		opts := wal.Options{Policy: wal.SyncAlways}
		if tr != nil {
			opts.WriteObserver = tr.walWrite
		}
		if svc.log, err = wal.Open(svc.walDir, opts); err != nil {
			return svc, fmt.Errorf("opening WAL: %w", err)
		}
		if err := p.AttachWAL(projectID, svc.log, snapshotEvery); err != nil {
			return svc, err
		}
	}
	if tr != nil {
		tr.attach(p)
	}
	for n := 1; n <= w.initial; n++ {
		if _, err := c.do(http.MethodPost, factsPath, wire.FactRequest{Relation: w.seedRel, Values: w.seedFact(n)}, nil, "fact"); err != nil {
			return svc, fmt.Errorf("seeding %s %d: %w", w.seedRel, n, err)
		}
	}
	var fp wire.FixpointResponse
	if _, err := c.do(http.MethodPost, "/api/v1/projects/"+projectID+"/fixpoint", nil, &fp, "other"); err != nil {
		return svc, fmt.Errorf("initial fixpoint: %w", err)
	}
	if fp.Pending != w.initial {
		return svc, fmt.Errorf("initial fixpoint left %d pending requests, want %d", fp.Pending, w.initial)
	}
	if svc.events, err = dialEvents(base); err != nil {
		return svc, fmt.Errorf("subscribing to events: %w", err)
	}
	if tr != nil {
		tr.startDeriver(p)
	}
	return svc, nil
}

const (
	feedPath    = "/api/v1/projects/" + projectID + "/tasks"
	answersPath = "/api/v1/projects/" + projectID + "/answers"
	factsPath   = "/api/v1/projects/" + projectID + "/facts"
)

// stop shuts the service down and waits for every goroutine it started.
// The platform stays readable for the correctness checks.
func (s *service) stop() {
	if s.tr != nil {
		s.tr.stopDeriver()
	}
	s.srv.Close()
	s.hs.Close()
	<-s.served
	if s.events != nil {
		s.events.close()
	}
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
}

// closeLog closes the durable workload's WAL; call it after stop.
func (s *service) closeLog() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// client is one sending connection: a keep-alive HTTP/1.1 transport capped
// at a single connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: tr}
}

// call is the outcome of one request.
type call struct {
	op         uint64 // operation id on traced runs, else 0
	status     int    // 0 on transport error
	sent, done time.Time
}

// statusError reports a non-2xx response.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one JSON request and decodes a 2xx response body into out (when
// non-nil). On traced runs the request gets an operation id, which links
// its client span (named after kind) to its handler span.
func (c *client) do(method, path string, in, out any, kind string) (call, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return call{}, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return call{}, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var cl call
	if c.tr != nil {
		cl.op = c.tr.ops.Add(1)
		req.Header.Set(opHeader, strconv.FormatUint(cl.op, 10))
		defer func() { c.tr.clientSpan(kind, cl.op, cl.sent, cl.done, cl.status) }()
	}
	cl.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		cl.done = time.Now()
		return cl, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.done = time.Now()
	cl.status = resp.StatusCode
	if err != nil {
		return cl, err
	}
	if resp.StatusCode/100 != 2 {
		return cl, &statusError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return cl, fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return cl, nil
}

// eventLog records when each "fixpoint" event reaches the client over the
// WebSocket stream. Rounds arrive in increasing order because the platform
// serializes a project's commits and the hub delivers in order.
type eventLog struct {
	stream *wire.EventStream
	done   chan struct{}
	notify chan struct{}

	mu       sync.Mutex
	rounds   []uint64
	arrivals []time.Time
	received int // every event, fixpoint or not
}

func dialEvents(base string) (*eventLog, error) {
	s, err := wire.DialEvents(base, projectID)
	if err != nil {
		return nil, err
	}
	l := &eventLog{stream: s, done: make(chan struct{}), notify: make(chan struct{}, 1)}
	go l.read()
	return l, nil
}

func (l *eventLog) read() {
	defer close(l.done)
	for {
		msg, err := l.stream.Next()
		if err != nil {
			return
		}
		now := time.Now()
		l.mu.Lock()
		l.received++
		if msg.Kind == "fixpoint" {
			l.rounds = append(l.rounds, msg.Round)
			l.arrivals = append(l.arrivals, now)
		}
		l.mu.Unlock()
		select {
		case l.notify <- struct{}{}:
		default:
		}
	}
}

// covering returns the arrival of the first fixpoint event whose round is
// at least r: the moment the client learns an answer of round r is derived.
func (l *eventLog) covering(r uint64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.rounds), func(i int) bool { return l.rounds[i] >= r })
	if i == len(l.rounds) {
		return time.Time{}, false
	}
	return l.arrivals[i], true
}

// waitRound blocks until a fixpoint event covers round r or the timeout
// passes.
func (l *eventLog) waitRound(r uint64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if _, ok := l.covering(r); ok {
			return true
		}
		select {
		case <-l.notify:
		case <-l.done:
			_, ok := l.covering(r)
			return ok
		case <-deadline.C:
			return false
		}
	}
}

func (l *eventLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.received
}

// close ends the subscription and waits for the reader to exit.
func (l *eventLog) close() {
	l.stream.Close()
	<-l.done
}

// isStatus reports whether err is a non-2xx response with the given status.
func isStatus(err error, status int) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == status
}
