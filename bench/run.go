package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api/wire"
	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
	"github.com/crowd4u/crowd4u-go/internal/wal"
)

const (
	// maxPages bounds the feed pages one answer operation fetches looking
	// for a task no sender has claimed yet.
	maxPages = 8
	// drainTimeout bounds the wait, after the window, for the fixpoint
	// event covering the last acknowledged answer.
	drainTimeout = 10 * time.Second
)

// fact is one whole fact the service accepted: a seed fact or an answer.
type fact struct {
	rel  string
	vals []any
}

// answerRec is one acknowledged answer. t0 is the operation's due time on
// an open loop and the answer's send time on a closed loop; lag and rtt
// split the time from t0 to the 202 into generator lateness and client
// round trips.
type answerRec struct {
	t0       time.Time
	lag, rtt time.Duration
	ack      time.Time
	round    uint64
	fixpoint time.Time // arrival of the covering fixpoint event; zero if none came
	fact     fact
}

// pass is one run of a workload against one hosted service: set-up, the
// measured window, the drain and the checks.
type pass struct {
	w      workload
	seed   int64
	prog   *cylog.Program
	setups []time.Duration
	start  time.Time // the first scheduled operation

	lastTotal atomic.Int64 // pending-set size from the latest feed page
	nextFact  atomic.Int64 // number of the last seed fact handed out

	mu       sync.Mutex
	claimed  map[string]bool
	answers  []answerRec
	facts    []fact
	feeds    []time.Duration
	lags     []time.Duration
	requests int // HTTP requests sent in the window
	failed   int // non-2xx responses and transport errors
	rejected int // 429 responses among them
	noWork   int // open-loop operations that found no unclaimed task
	firstErr error

	uncovered, skipped      int
	heapMiB                 float64
	walBefore, walAfter     wal.Stats
	bsBefore, bsAfter       relstore.BackendStats
	eventsBefore, eventsAll int
	pendingEnd              int
	recoverDur              time.Duration
	checkErr                error
}

// runPass sets the service up repeats times (keeping the last), drives it
// for the window, drains, measures and checks the outcome. tr, when set,
// traces the pass; traced passes set up once.
func runPass(w workload, seed int64, window time.Duration, workDir string, repeats int, tr *tracer) (*pass, error) {
	prog, err := cylog.Parse(w.program)
	if err != nil {
		return nil, err
	}
	ps := &pass{w: w, seed: seed, prog: prog, claimed: make(map[string]bool)}
	var svc *service
	var dir string
	for i := 0; i < repeats; i++ {
		d, err := os.MkdirTemp(workDir, w.name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		s, err := startService(w, d, tr)
		if err != nil {
			os.RemoveAll(d)
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		ps.setups = append(ps.setups, time.Since(start))
		if i < repeats-1 {
			s.stop()
			s.closeLog()
			os.RemoveAll(d)
			continue
		}
		svc, dir = s, d
	}
	defer os.RemoveAll(dir)
	for n := 1; n <= w.initial; n++ {
		ps.facts = append(ps.facts, fact{rel: w.seedRel, vals: w.seedFact(n)})
	}
	ps.lastTotal.Store(int64(w.initial))
	ps.nextFact.Store(int64(w.initial))

	p := svc.p
	ps.walBefore, _ = p.WALStats(projectID)
	ps.bsBefore, _ = p.BackendStats(projectID)
	ps.eventsBefore = svc.events.count()
	if w.closed {
		ps.closedLoop(svc, window)
	} else {
		ps.openLoop(svc, window)
	}

	var last uint64
	for _, a := range ps.answers {
		last = max(last, a.round)
	}
	if last > 0 {
		svc.events.waitRound(last, drainTimeout)
	}
	for i := range ps.answers {
		a := &ps.answers[i]
		if at, ok := svc.events.covering(a.round); ok {
			a.fixpoint = at
		} else {
			ps.uncovered++
		}
	}
	for _, e := range p.Events() {
		if e.Kind == "cylog-answer-skipped" || e.Kind == "commit-error" {
			ps.skipped++
		}
	}
	ps.walAfter, _ = p.WALStats(projectID)
	ps.bsAfter, _ = p.BackendStats(projectID)
	ps.eventsAll = svc.events.count()
	live := p.Engine(projectID)
	ps.pendingEnd = len(live.PendingRequests())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.heapMiB = float64(ms.HeapAlloc) / (1 << 20)

	svc.stop()
	if tr != nil {
		tr.deriveSpans(svc.events)
	}
	// The deriver commits only rounds that hold answers, so seed facts
	// posted after the last answer are inserted but not yet derived (nor
	// in the WAL). One more commit brings the served state to the fixpoint
	// the checks compare.
	if _, err := p.CommitRound(projectID); err != nil {
		svc.closeLog()
		return nil, fmt.Errorf("%s final commit: %w", w.name, err)
	}
	answered := make([]fact, len(ps.answers))
	for i, a := range ps.answers {
		answered[i] = a.fact
	}
	ps.checkErr = referenceCheck(prog, ps.facts, answered, live)
	if err := svc.closeLog(); err != nil && ps.checkErr == nil {
		ps.checkErr = fmt.Errorf("closing WAL: %w", err)
	}
	if w.durable && ps.checkErr == nil {
		ps.recoverDur, ps.checkErr = recoverCheck(w, svc.walDir, dir, live)
	}
	if ps.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failed request: %v\n", w.name, ps.firstErr)
	}
	return ps, nil
}

// openLoop sends the seeded schedule: operations are due at fixed times
// whatever the service does, and the senders take the next due operation
// as soon as they are free, so a stall shows as lateness of later ones.
func (ps *pass) openLoop(svc *service, window time.Duration) {
	ops := openSchedule(ps.seed, ps.w.rate, window, ps.w.factEvery)
	var next atomic.Int64
	var wg sync.WaitGroup
	ps.start = time.Now()
	for _, c := range svc.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := ps.start.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				switch {
				case o.fact:
					ps.factOp(c, due)
				case !ps.answerOp(c, due, true, o.pages):
					ps.mu.Lock()
					ps.noWork++
					ps.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs each sender back to back until the window closes: an
// operation is due the moment the sender's previous one completed.
func (ps *pass) closedLoop(svc *service, window time.Duration) {
	ps.start = time.Now()
	deadline := ps.start.Add(window)
	var wg sync.WaitGroup
	for k, c := range svc.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := workerRNG(ps.seed, k)
			due, answered := ps.start, 0
			for time.Now().Before(deadline) {
				if !ps.answerOp(c, due, false, drawPage(rng)) {
					return // the backlog is exhausted
				}
				answered++
				if ps.w.factEvery > 0 && answered%ps.w.factEvery == 0 {
					ps.factOp(c, time.Now())
				}
				due = time.Now()
			}
		}()
	}
	wg.Wait()
}

// answerOp fetches feed pages until it finds a task no sender has claimed,
// then answers it. It reports false when there was no task to answer.
func (ps *pass) answerOp(c *client, due time.Time, open bool, pc pageChoice) bool {
	var (
		tv    wire.TaskView
		found bool
		lag   time.Duration
		rtt   time.Duration
	)
	for try := 0; try < maxPages && !found; try++ {
		total := int(ps.lastTotal.Load())
		offset := int(pc.offset * float64(max(total-pageSize, 0)))
		var feed wire.TaskFeed
		cl, err := c.do(http.MethodGet, fmt.Sprintf("%s?offset=%d&limit=%d", feedPath, offset, pageSize), nil, &feed, "feed")
		t0 := cl.sent
		if try == 0 {
			lag = cl.sent.Sub(due)
			ps.record(&ps.lags, lag)
			if open {
				t0 = due
			}
		}
		if !ps.request(err) {
			return true
		}
		ps.record(&ps.feeds, cl.done.Sub(t0))
		rtt += cl.done.Sub(cl.sent)
		ps.lastTotal.Store(int64(feed.Total))
		if feed.Total == 0 {
			return false
		}
		tv, found = ps.claim(feed.Tasks, pc.pick)
		pc = pc.next()
	}
	if !found {
		return false
	}
	values := answerValues(ps.seed, tv)
	f, ok := wholeFact(ps.prog, tv, values)
	if !ok {
		ps.request(fmt.Errorf("feed offered a task of undeclared relation %q", tv.Relation))
		return true
	}
	var resp wire.AnswerResponse
	cl, err := c.do(http.MethodPost, answersPath, wire.AnswerRequest{RequestID: tv.ID, Values: values}, &resp, "answer")
	if !ps.request(err) {
		return true
	}
	a := answerRec{t0: due, lag: lag, rtt: rtt + cl.done.Sub(cl.sent), ack: cl.done, round: resp.Round, fact: f}
	if !open {
		a.t0, a.lag, a.rtt = cl.sent, 0, cl.done.Sub(cl.sent)
	}
	ps.mu.Lock()
	ps.answers = append(ps.answers, a)
	ps.mu.Unlock()
	return true
}

// factOp is the requester posting the next seed fact.
func (ps *pass) factOp(c *client, due time.Time) {
	vals := ps.w.seedFact(int(ps.nextFact.Add(1)))
	cl, err := c.do(http.MethodPost, factsPath, wire.FactRequest{Relation: ps.w.seedRel, Values: vals}, nil, "fact")
	ps.record(&ps.lags, cl.sent.Sub(due))
	if ps.request(err) {
		ps.mu.Lock()
		ps.facts = append(ps.facts, fact{rel: ps.w.seedRel, vals: vals})
		ps.mu.Unlock()
	}
}

// claim takes the first unclaimed task on the page, starting at pick.
func (ps *pass) claim(tasks []wire.TaskView, pick int) (wire.TaskView, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i := range tasks {
		tv := tasks[(pick+i)%len(tasks)]
		if !ps.claimed[tv.ID] {
			ps.claimed[tv.ID] = true
			return tv, true
		}
	}
	return wire.TaskView{}, false
}

// request counts one sent request and its failure, if any.
func (ps *pass) request(err error) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.requests++
	if err == nil {
		return true
	}
	ps.failed++
	if isStatus(err, http.StatusTooManyRequests) {
		ps.rejected++
	}
	if ps.firstErr == nil {
		ps.firstErr = err
	}
	return false
}

func (ps *pass) record(xs *[]time.Duration, d time.Duration) {
	ps.mu.Lock()
	*xs = append(*xs, d)
	ps.mu.Unlock()
}

// wholeFact is the fact an answer inserts: the task's key values plus the
// answered open columns, in declaration order.
func wholeFact(prog *cylog.Program, tv wire.TaskView, values map[string]any) (fact, bool) {
	decl := prog.DeclarationFor(tv.Relation)
	if decl == nil {
		return fact{}, false
	}
	vals := make([]any, len(decl.Columns))
	for i, col := range decl.Columns {
		v, ok := tv.Key[col.Name]
		if !ok {
			v = values[col.Name]
		}
		if f, num := v.(float64); num && f == math.Trunc(f) {
			v = int64(f) // JSON numbers decode as float64; key columns are ints
		}
		vals[i] = v
	}
	return fact{rel: tv.Relation, vals: vals}, true
}

// failures counts every way an operation can fail: a refused or broken
// request, an open-loop operation without a task, an answer skipped at
// commit, and an answer no fixpoint event covered.
func (ps *pass) failures() int { return ps.failed + ps.noWork + ps.skipped + ps.uncovered }
