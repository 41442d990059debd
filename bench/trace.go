package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
)

// opHeader carries a traced request's operation id from the client span to
// the handler span.
const opHeader = "X-Bench-Op"

// span is one traced interval, in nanoseconds since the tracer's origin.
// Point events have Start == End. HTTP spans share Op with their parent;
// commit and event spans share Round, and an answer joins its round through
// the round in its 202.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Round  uint64 `json:"round,omitempty"`
	Status int    `json:"status,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// commitRec is one round commit made by the tracer's deriver, with the
// platform events and WAL writes observed while it ran (-1 when absent).
type commitRec struct {
	round                           uint64
	start, end                      int64
	firstWrite                      int64
	walAppend, walSnapshot, fixedAt int64
	answers, skipped                int
	stats                           cylog.Stats
	resident                        int64
}

// tracer records spans from outside the program: a handler around
// api.Server, its own copy of the server's deriver loop around
// Platform.CommitRound, a platform event sink, and the WAL's write
// observer. Spans stay in memory until the run ends.
type tracer struct {
	origin time.Time
	ops    atomic.Uint64

	mu      sync.Mutex
	spans   []span
	commits []commitRec
	cur     *commitRec // the commit in progress on the deriver goroutine

	unsub func()
	stop  chan struct{}
	done  chan struct{}
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clientSpan records one request as the client saw it.
func (t *tracer) clientSpan(kind string, op uint64, sent, done time.Time, status int) {
	t.add(span{Name: "client." + kind, Start: t.ns(sent), End: t.ns(done), Op: op, Status: status})
}

// handler wraps the API so every request carrying an operation id gets a
// handler span. The event stream carries none and passes through untouched,
// keeping its connection hijackable.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if op == 0 {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		kind := routeKind(r)
		t.add(span{Name: "api." + kind, Start: t.ns(start), End: t.ns(time.Now()), Parent: "client." + kind, Op: op, Status: sw.status})
	})
}

func routeKind(r *http.Request) string {
	switch {
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/tasks"):
		return "feed"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/answers"):
		return "answer"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/facts"):
		return "fact"
	default:
		return "other"
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// attach subscribes the tracer to the platform's events: the WAL and
// fixpoint events a commit records are stamped onto the commit in progress.
func (t *tracer) attach(p *platform.Platform) {
	t.unsub = p.Subscribe(func(e platform.Event) {
		if e.Project != projectID {
			return
		}
		at := t.ns(e.At)
		t.mu.Lock()
		defer t.mu.Unlock()
		c := t.cur
		switch {
		case c == nil:
			return
		case e.Kind == "wal-append":
			c.walAppend = at
		case e.Kind == "wal-snapshot":
			c.walSnapshot = at
		case e.Kind == "fixpoint":
			c.fixedAt = at
		default:
			return
		}
		t.spans = append(t.spans, span{Name: "event." + e.Kind, Start: at, End: at, Parent: "platform.commit", Round: e.Round})
	})
}

// walWrite is the WAL's write observer: it stamps the first physical write
// of the commit in progress.
func (t *tracer) walWrite(kind string, _ int) {
	if kind != "append-header" {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	if t.cur != nil && t.cur.firstWrite < 0 {
		t.cur.firstWrite = now
	}
	t.mu.Unlock()
}

// startDeriver runs the tracer's deriver in place of the server's (whose
// CommitInterval is off on traced runs). It is the server's deriveLoop
// without per-project cadence overrides, which no workload sets: every tick
// commits each project with staged answers.
func (t *tracer) startDeriver(p *platform.Platform) {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		ticker := time.NewTicker(commitInterval)
		defer ticker.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-ticker.C:
				for _, a := range p.Projects.All() {
					id := a.Description.ID
					if p.Engine(id) == nil || p.StagedAnswers(id) == 0 {
						continue
					}
					t.commit(p, id)
				}
			}
		}
	}()
}

func (t *tracer) commit(p *platform.Platform, id project.ID) {
	t.mu.Lock()
	t.cur = &commitRec{start: t.ns(time.Now()), firstWrite: -1, walAppend: -1, walSnapshot: -1, fixedAt: -1}
	t.mu.Unlock()
	rc, err := p.CommitRound(id)
	end := t.ns(time.Now())
	if err != nil {
		p.Record(platform.Event{Kind: "commit-error", Project: id, Message: err.Error()})
	}
	bs, _ := p.BackendStats(id)
	t.mu.Lock()
	c := t.cur
	t.cur = nil
	c.end, c.round, c.answers, c.skipped, c.stats, c.resident = end, rc.Seq, rc.Answers, rc.Skipped, rc.Stats, bs.ResidentBytes
	t.commits = append(t.commits, *c)
	t.mu.Unlock()
}

// stopDeriver stops the deriver and the event sink and waits for the
// deriver to exit.
func (t *tracer) stopDeriver() {
	if t.stop != nil {
		close(t.stop)
		<-t.done
		t.stop = nil
	}
	if t.unsub != nil {
		t.unsub()
		t.unsub = nil
	}
}

// deriveSpans adds the spans derived from each commit's observations and
// from the client's event arrivals:
//
//	platform.commit    commit start → CommitRound return
//	cylog.run          commit start → first WAL write, or → return without a WAL
//	wal.append         first WAL write → wal-append event
//	wal.snapshot       wal-append event → wal-snapshot event
//	relstore.maintain  last WAL event → fixpoint event
//	hub.fanout         fixpoint event → arrival at the WebSocket client
func (t *tracer) deriveSpans(ev *eventLog) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fixedAt := make(map[uint64]int64, len(t.commits))
	for _, c := range t.commits {
		r := c.round
		t.spans = append(t.spans, span{Name: "platform.commit", Start: c.start, End: c.end, Round: r})
		runEnd := c.end
		if c.firstWrite >= 0 {
			runEnd = c.firstWrite
		}
		t.spans = append(t.spans, span{Name: "cylog.run", Start: c.start, End: runEnd, Parent: "platform.commit", Round: r})
		if c.firstWrite >= 0 && c.walAppend >= 0 {
			t.spans = append(t.spans, span{Name: "wal.append", Start: c.firstWrite, End: c.walAppend, Parent: "platform.commit", Round: r})
		}
		if c.walAppend >= 0 && c.walSnapshot >= 0 {
			t.spans = append(t.spans, span{Name: "wal.snapshot", Start: c.walAppend, End: c.walSnapshot, Parent: "platform.commit", Round: r})
		}
		if last := max(c.walAppend, c.walSnapshot); last >= 0 && c.fixedAt >= 0 {
			t.spans = append(t.spans, span{Name: "relstore.maintain", Start: last, End: c.fixedAt, Parent: "platform.commit", Round: r})
		}
		if c.fixedAt >= 0 {
			fixedAt[r] = c.fixedAt
		}
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	for i, r := range ev.rounds {
		at := t.ns(ev.arrivals[i])
		t.spans = append(t.spans, span{Name: "client.event", Start: at, End: at, Round: r})
		if f, ok := fixedAt[r]; ok {
			t.spans = append(t.spans, span{Name: "hub.fanout", Start: f, End: at, Parent: "platform.commit", Round: r})
		}
	}
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans appends the spans, tagged with the workload, as JSON lines.
func (t *tracer) writeSpans(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	covered, reach := int64(0), parent.Start
	for _, v := range ivs {
		if v.e <= reach {
			continue
		}
		covered += v.e - max(v.s, reach)
		reach = v.e
	}
	return parent.dur() - covered
}

// overlapsAny reports whether s overlaps one of the sorted, disjoint
// intervals in ivs.
func overlapsAny(s span, ivs []span) bool {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].End > s.Start })
	return i < len(ivs) && ivs[i].Start < s.End
}
