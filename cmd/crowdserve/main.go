// Command crowdserve runs the full Crowd4U service: the JSON/REST API and
// WebSocket event stream (internal/api) with the server-rendered admin/worker
// UI (internal/webui) mounted on the same listener. Workers and harnesses
// (cmd/loadsim, curl — see docs/API.md) hit /api/v1/...; browsers get the
// HTML front end everywhere else.
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

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:8080", "listen address")
		queue          = flag.Int("queue", api.DefaultQueueCapacity, "ingress queue capacity per project (answers staged per round before 429)")
		commitInterval = flag.Duration("commit-interval", 25*time.Millisecond, "> 0 starts the background deriver, which commits staged answers on arrival, and is the 429 backoff hint; 0 = commit only via POST .../fixpoint")
		demo           = flag.Bool("demo", true, "register the demo labeling project at startup")
		popSize        = flag.Int("population", 25, "simulated worker population backing the web UI")
		seed           = flag.Int64("seed", 1, "crowd simulator seed")
		backend        = flag.String("backend", "", "relstore backend for project engines: memory or disk (default $CYLOG_BACKEND, else memory)")
		dataDir        = flag.String("data", "", "root directory for disk-backed relation segments (default $CYLOG_BACKEND_DIR, else per-project temp dirs)")
		memBudget      = flag.Int64("mem-budget", 0, "disk backend residency budget in bytes (0 = default)")
	)
	flag.Parse()

	p := platform.New()
	// platform.New seeds storage from the environment; flags win over it.
	storage := p.Storage()
	if *backend != "" {
		storage.Backend = *backend
	}
	if *dataDir != "" {
		storage.Dir = *dataDir
	}
	if *memBudget > 0 {
		storage.BudgetBytes = *memBudget
	}
	p.SetStorage(storage)
	crowd := crowdsim.New(crowdsim.DefaultConfig(*seed), p.Workers)
	crowd.GeneratePopulation(crowdsim.DefaultPopulation(*popSize))

	if *demo {
		if _, err := p.RegisterProject(project.Description{
			ID:          "demo-labels",
			Name:        "Demo labeling project",
			Summary:     "POST items to /api/v1/projects/demo-labels/facts, answer the generated label tasks.",
			CyLogSource: demoProgram,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "crowdserve:", err)
			os.Exit(1)
		}
	}

	srv := api.NewServer(p, api.Options{
		QueueCapacity:  *queue,
		CommitInterval: *commitInterval,
		UI:             webui.NewServer(p, crowd),
	})
	defer srv.Close()

	backendName := storage.Backend
	if backendName == "" {
		backendName = "memory"
	}
	deriver := "on arrival"
	if *commitInterval <= 0 {
		deriver = "via POST .../fixpoint only"
	}
	fmt.Fprintf(os.Stderr, "crowdserve: serving API + web UI on http://%s (queue %d, commits %s, backend %s)\n",
		*addr, *queue, deriver, backendName)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		fmt.Fprintln(os.Stderr, "crowdserve:", err)
		os.Exit(1)
	}
}
