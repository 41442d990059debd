// Command crowdserve runs the full Crowd4U service: the JSON/REST API and
// WebSocket event stream (internal/api) with the server-rendered admin/worker
// UI (internal/webui) mounted on the same listener. Workers and harnesses
// (cmd/loadsim, curl — see docs/API.md) hit /api/v1/...; browsers get the
// HTML front end everywhere else, including the dashboard's button that runs
// a deployment cycle with the simulated crowd.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api"
	"github.com/crowd4u/crowd4u-go/internal/crowdsim"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/webui"
)

// demoProgram gives a fresh instance something to serve: a labeling project
// with open requests as soon as the first items arrive over POST .../facts.
const demoProgram = `
rel item(id: int).
open rel label(id: int, ok: bool) key(id) asks "Is this item acceptable?".
rel labeled(id: int).
rel flagged(id: int).

labeled(I) :- item(I), label(I, true).
flagged(I) :- item(I), !labeled(I).
`

// config holds crowdserve's flags.
type config struct {
	addr           string
	queue          int
	commitInterval time.Duration
	demo           bool
	population     int
	seed           int64
	backend        string
	dataDir        string
	memBudget      int64
}

func main() {
	var c config
	flag.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.IntVar(&c.queue, "queue", api.DefaultQueueCapacity, "ingress queue capacity per project (answers staged per round before 429)")
	flag.DurationVar(&c.commitInterval, "commit-interval", 25*time.Millisecond, "> 0 starts the background deriver, which commits staged answers on arrival, and is the 429 backoff hint; 0 = commit only via POST .../fixpoint")
	flag.BoolVar(&c.demo, "demo", true, "register the demo labeling project at startup")
	flag.IntVar(&c.population, "population", 25, "simulated worker population backing the web UI")
	flag.Int64Var(&c.seed, "seed", 1, "crowd simulator seed")
	flag.StringVar(&c.backend, "backend", "", "relstore backend for project engines: memory or disk (default $CYLOG_BACKEND, else memory)")
	flag.StringVar(&c.dataDir, "data", "", "root directory for disk-backed relation segments (default $CYLOG_BACKEND_DIR, else per-project temp dirs)")
	flag.Int64Var(&c.memBudget, "mem-budget", 0, "disk backend residency budget in bytes (0 = default)")
	flag.Parse()

	srv, storage, err := newServer(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdserve:", err)
		os.Exit(1)
	}
	defer srv.Close()

	backendName := storage.Backend
	if backendName == "" {
		backendName = "memory"
	}
	deriver := "on arrival"
	if c.commitInterval <= 0 {
		deriver = "via POST .../fixpoint only"
	}
	fmt.Fprintf(os.Stderr, "crowdserve: serving API + web UI on http://%s (queue %d, commits %s, backend %s)\n",
		c.addr, c.queue, deriver, backendName)
	if err := http.ListenAndServe(c.addr, srv); err != nil {
		fmt.Fprintln(os.Stderr, "crowdserve:", err)
		os.Exit(1)
	}
}

// newServer builds the service crowdserve serves: a platform on the flags'
// storage, the demo project when asked for, a simulated crowd for the web
// UI's cycle action, and the API server with the web UI mounted under it. It
// also returns the storage options the platform builds engines with.
func newServer(c config) (*api.Server, platform.StorageOptions, error) {
	p := platform.New()
	// platform.New seeds storage from the environment; flags win over it.
	storage := p.Storage()
	if c.backend != "" {
		storage.Backend = c.backend
	}
	if c.dataDir != "" {
		storage.Dir = c.dataDir
	}
	if c.memBudget > 0 {
		storage.BudgetBytes = c.memBudget
	}
	p.SetStorage(storage)
	crowd := crowdsim.New(crowdsim.DefaultConfig(c.seed), p.Workers)
	crowd.GeneratePopulation(crowdsim.DefaultPopulation(c.population))

	if c.demo {
		if _, err := p.RegisterProject(project.Description{
			ID:          "demo-labels",
			Name:        "Demo labeling project",
			Summary:     "POST items to /api/v1/projects/demo-labels/facts, answer the generated label tasks.",
			CyLogSource: demoProgram,
		}); err != nil {
			return nil, storage, err
		}
	}
	srv := api.NewServer(p, api.Options{
		QueueCapacity:  c.queue,
		CommitInterval: c.commitInterval,
		UI:             webui.NewServer(p, crowd),
	})
	return srv, storage, nil
}
