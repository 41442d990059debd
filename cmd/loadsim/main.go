// Command loadsim is the closed-loop HTTP load harness for the service
// layer: it registers a labeling project, seeds N items, and drives W
// simulated workers against the REST surface — feed fetch, answer
// submission through the ingress queue (backing off on 429), fixpoint
// completion observed as round-stamped events on the WebSocket stream.
//
// Two headline metrics come out of a run:
//
//   - answer throughput: accepted answers per second across the whole run,
//     also reported as ns per answer;
//   - p99 answer→fixpoint latency: per answer, the time from the 202
//     acceptance to the arrival of the "fixpoint" event whose round covers
//     it — the full ingest→derive→notify path a worker experiences.
//
// With -bench (the default) the results are printed as `go test -bench`
// style lines, which `make loadcheck` pipes into cmd/benchcheck against
// BENCH_platform.json — the same regression gate the engine benchmarks use.
//
// By default the harness self-hosts: it spins up the full service
// (internal/api over internal/platform) on a loopback listener and measures
// through real HTTP. Point -url at a running `crowdserve` to load an
// external instance instead (the target project must not already exist).
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api"
	"github.com/crowd4u/crowd4u-go/internal/crowdsim"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// labelingProgram is the load workload: one open request per item, a
// positive consequence per approval and a negation-derived flag otherwise,
// so every commit exercises insertion, retraction and request closing.
const labelingProgram = `
rel item(id: int).
open rel label(id: int, ok: bool) key(id) asks "Is this item acceptable?".
rel labeled(id: int).
rel flagged(id: int).

labeled(I) :- item(I), label(I, true).
flagged(I) :- item(I), !labeled(I).
`

func main() {
	var (
		urlFlag        = flag.String("url", "", "target server root; empty self-hosts the full service on loopback")
		projectID      = flag.String("project", "loadsim", "project id to create and load")
		items          = flag.Int("items", 400, "items to seed (one open request each)")
		workers        = flag.Int("workers", 32, "concurrent simulated workers")
		commitInterval = flag.Duration("commit-interval", 10*time.Millisecond, "> 0 starts the background deriver, which commits on arrival, and is the 429 backoff hint (self-hosted mode)")
		queue          = flag.Int("queue", 1024, "ingress queue capacity per project (self-hosted mode)")
		seed           = flag.Int64("seed", 1, "crowd simulator seed")
		timeout        = flag.Duration("timeout", 2*time.Minute, "abort the run after this long")
		bench          = flag.Bool("bench", true, "print go test -bench style result lines on stdout")
	)
	flag.Parse()

	base := *urlFlag
	if base == "" {
		p := platform.New()
		srv := api.NewServer(p, api.Options{
			QueueCapacity:  *queue,
			CommitInterval: *commitInterval,
		})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadsim: self-hosted service at %s\n", base)
	}

	r, err := run(base, *projectID, *items, *workers, *seed, *timeout)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr,
		"loadsim: %d answers by %d workers in %s — %.0f answers/sec, p99 answer→fixpoint %s (p50 %s), %d overload retries\n",
		r.answers, *workers, r.wall.Round(time.Millisecond), r.perSec,
		time.Duration(r.p99).Round(time.Microsecond), time.Duration(r.p50).Round(time.Microsecond), r.retries)

	if *bench {
		// Lines in `go test -bench` shape so cmd/benchcheck gates them
		// against BENCH_platform.json (names in its "platform-http" group).
		fmt.Printf("BenchmarkServiceAnswerThroughput %d %.0f ns/op\n", r.answers, float64(r.wall.Nanoseconds())/float64(r.answers))
		fmt.Printf("BenchmarkServiceAnswerFixpointP99 %d %.0f ns/op\n", r.answers, r.p99)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadsim:", err)
	os.Exit(1)
}

// result is one closed-loop run's measurements.
type result struct {
	answers int
	wall    time.Duration
	perSec  float64
	p50     float64 // ns
	p99     float64 // ns
	retries int64
}

// stamp is one accepted answer awaiting its covering fixpoint event.
type stamp struct {
	round uint64
	at    time.Time
}

func run(base, projectID string, items, workers int, seed int64, timeout time.Duration) (*result, error) {
	client := crowdsim.NewServiceClient(base, projectID)
	crowd := crowdsim.New(crowdsim.DefaultConfig(seed), worker.NewManager())

	if _, err := client.CreateProject(api.CreateProjectRequest{
		ID:    projectID,
		Name:  "Loadsim labeling workload",
		CyLog: labelingProgram,
	}); err != nil {
		return nil, fmt.Errorf("creating project: %w", err)
	}
	for i := 1; i <= items; i++ {
		if err := client.AddFact("item", i); err != nil {
			return nil, fmt.Errorf("seeding item %d: %w", i, err)
		}
	}
	fp, err := client.Fixpoint()
	if err != nil {
		return nil, fmt.Errorf("initial fixpoint: %w", err)
	}
	if fp.Pending != items {
		return nil, fmt.Errorf("initial fixpoint left %d pending requests, want %d", fp.Pending, items)
	}

	// Latency tracker: workers append stamps as answers are accepted; the
	// event listener resolves every stamp covered by each arriving fixpoint
	// round into a latency sample. maxRound is the highest fixpoint round
	// seen so far — an answer whose covering event raced ahead of its 202
	// (the listener can process the round's fixpoint before SubmitAnswer
	// returns) resolves at append time instead of waiting for a later event
	// that may never come on the run's final round.
	var (
		mu        sync.Mutex
		pending   []stamp
		latencies []float64
		maxRound  uint64
		lastEvent time.Time
		resolved  = make(chan struct{}, 1)
	)
	stream, err := client.Events()
	if err != nil {
		return nil, fmt.Errorf("subscribing to events: %w", err)
	}
	defer stream.Close()
	go func() {
		for {
			msg, err := stream.Next()
			if err != nil {
				return
			}
			if msg.Kind != "fixpoint" {
				continue
			}
			now := time.Now()
			mu.Lock()
			if msg.Round > maxRound {
				maxRound = msg.Round
			}
			kept := pending[:0]
			for _, s := range pending {
				if s.round <= msg.Round {
					latencies = append(latencies, float64(now.Sub(s.at).Nanoseconds()))
					lastEvent = now
				} else {
					kept = append(kept, s)
				}
			}
			pending = kept
			mu.Unlock()
			select {
			case resolved <- struct{}{}:
			default:
			}
		}
	}()

	// The workload derives no follow-up requests, so one full feed fetch
	// covers the run; workers drain the shared queue of request ids.
	feed, err := client.Tasks(0, items)
	if err != nil {
		return nil, fmt.Errorf("fetching feed: %w", err)
	}
	if len(feed.Tasks) != items {
		return nil, fmt.Errorf("feed has %d tasks, want %d", len(feed.Tasks), items)
	}
	queue := make(chan api.TaskView, items)
	for _, tv := range feed.Tasks {
		queue <- tv
	}
	close(queue)

	start := time.Now()
	deadline := start.Add(timeout)
	var (
		wg        sync.WaitGroup
		retriesMu sync.Mutex
		retries   int64
		firstErr  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tv := range queue {
				values, ok := crowd.AnswerTaskView(tv)
				if !ok {
					continue
				}
				for {
					resp, err := client.SubmitAnswer(tv.ID, values)
					if err == nil {
						now := time.Now()
						mu.Lock()
						if resp.Round <= maxRound {
							// The covering fixpoint event already arrived:
							// resolve now (zero observed latency) rather
							// than stranding a stamp no later event covers.
							latencies = append(latencies, 0)
							lastEvent = now
						} else {
							pending = append(pending, stamp{round: resp.Round, at: now})
						}
						mu.Unlock()
						break
					}
					se, isService := err.(*crowdsim.ServiceError)
					if isService && se.Overloaded() && time.Now().Before(deadline) {
						retriesMu.Lock()
						retries++
						retriesMu.Unlock()
						wait := se.RetryAfter
						if wait <= 0 {
							wait = 5 * time.Millisecond
						}
						time.Sleep(wait)
						continue
					}
					retriesMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("answering %s: %w", tv.ID, err)
					}
					retriesMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Drain: wait until every accepted answer's round has committed.
	for {
		mu.Lock()
		left := len(pending)
		n := len(latencies)
		mu.Unlock()
		if left == 0 && n > 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("timed out with %d answers unresolved", left)
		}
		select {
		case <-resolved:
		case <-time.After(50 * time.Millisecond):
		}
	}

	mu.Lock()
	wall := lastEvent.Sub(start)
	samples := append([]float64(nil), latencies...)
	mu.Unlock()
	if wall <= 0 {
		wall = time.Since(start)
	}
	return &result{
		answers: len(samples),
		wall:    wall,
		perSec:  float64(len(samples)) / wall.Seconds(),
		p50:     percentile(samples, 0.50),
		p99:     percentile(samples, 0.99),
		retries: retries,
	}, nil
}

// percentile returns the p-quantile (0 <= p <= 1) of the sample, linearly
// interpolated between the nearest ranks. An empty sample returns 0; the
// input is not reordered.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
