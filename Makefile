# Crowd4U-go build entry points. CI (.github/workflows/ci.yml) invokes these
# same targets so local runs and CI are identical.

GO        ?= go
BENCHTIME ?= 1x
PKGS      := ./...
BENCHPKGS := ./internal/cylog/ ./internal/relstore/ ./internal/wal/

# Crash-replay differential (`make crashcheck`): randomized kill points per
# run; the seed is fixed so CI failures reproduce locally with the same
# command. Override CRASH_ITERS/CRASH_SEED to explore more kill offsets.
# CRASH_BACKEND pins the storage backend of the crashed-and-resumed runs
# ("memory" or "disk"); empty cycles both, so the default gate also proves
# disk-backed crash recovery byte-identical to the memory reference.
CRASH_ITERS   ?= 5
CRASH_SEED    ?= 1
CRASH_BACKEND ?=

# Native Go fuzzing smoke (`make fuzz`): each target gets FUZZTIME of
# coverage-guided exploration. Crashers found previously are committed under
# testdata/fuzz/ and replay as regular tests on every `go test` run.
FUZZTIME ?= 30s

# staticcheck is pinned so CI results are reproducible; `make lint` skips it
# gracefully when the binary is absent so local runs need no extra install.
STATICCHECK_VERSION ?= 2024.1.1

# Coverage floors for the engine packages and the reference evaluator,
# enforced by `make cover`; the floors sit just below current coverage to
# absorb refactoring noise. Raise them when coverage genuinely improves; never
# lower them to make CI pass.
COVER_FLOOR_CYLOG     ?= 93
COVER_FLOOR_REFERENCE ?= 90
COVER_FLOOR_RELSTORE  ?= 88
COVER_FLOOR_WAL       ?= 85

BENCHOUT     ?= bench.out
COVERPROFILE ?= cover.out

# Service-layer load gate (`make loadcheck`): cmd/loadsim drives the HTTP
# path closed-loop and its throughput + p99 answer→fixpoint latency are
# gated against BENCH_platform.json. The parameters are pinned so runs are
# comparable to the recorded baselines.
LOADSIM_ARGS      ?= -items 400 -workers 32 -commit-interval 10ms -queue 1024 -seed 1
PLATFORM_BENCHOUT ?= platform_bench.out

.PHONY: build test test-sequential test-disk-backend bench-test lint vet fmt staticcheck bench benchcheck loadcheck cover crashcheck crashcheck-content fuzz linkcheck ci

build:
	$(GO) build $(PKGS)

test:
	$(GO) test -race $(PKGS)

# Forces every engine onto one worker (the stratum loop runs its tasks
# inline); CI runs both this and `test`, so the differential tests check the
# pool and the one-worker loop against the from-scratch reference evaluator.
# Scoped to the packages that construct engines — only they read
# CYLOG_PARALLELISM, so re-running the rest would duplicate `test` verbatim.
ENGINEPKGS := ./internal/cylog/ ./internal/platform/ ./internal/crowdsim/ ./internal/api/

test-sequential:
	CYLOG_PARALLELISM=1 $(GO) test -race $(ENGINEPKGS)

# Forces every platform-managed engine onto the disk-paged relstore backend
# with a byte budget small enough that base relations actually page in and
# out, turning the service-layer suites into a differential check that the
# storage seam is behaviourally invisible. Scoped to the packages that build
# engines through the platform — only they read CYLOG_BACKEND; the relstore
# conformance suite and `make crashcheck` (which cycles -backend) cover the
# storage layer and crash recovery directly.
test-disk-backend:
	CYLOG_BACKEND=disk CYLOG_BACKEND_BUDGET=16384 $(GO) test -race ./internal/platform/ ./internal/api/

# The repository benchmark (bench/, see bench/README.md) is its own Go
# module, so `go test ./...` from the root never reaches it. This runs its
# unit tests, including a smoke run of every workload with the from-scratch
# reference check.
bench-test:
	cd bench && $(GO) test -race .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet $(PKGS)

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck $(PKGS); \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

lint: fmt vet staticcheck

# Smoke by default (BENCHTIME=1x); use `make bench BENCHTIME=2s` for real
# measurements, and record baselines in BENCH_cylog.json (workflow in
# README.md).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=$(BENCHTIME) $(BENCHPKGS)

# Benchmark-regression gate: runs the bench smoke and compares ns/op and
# allocs/op against BENCH_cylog.json (tolerances and the wall-clock core
# floor live in that file's `benchcheck` block; see README.md), then runs
# the service-layer load gate against BENCH_platform.json.
benchcheck: loadcheck
	$(GO) test -run '^$$' -bench=. -benchtime=$(BENCHTIME) $(BENCHPKGS) > $(BENCHOUT)
	$(GO) run ./cmd/benchcheck -baseline BENCH_cylog.json -input $(BENCHOUT)

# Closed-loop HTTP load gate: seconds, not minutes — the harness self-hosts
# the service on loopback and answers every seeded item once (EXPERIMENTS.md
# §7 describes the workload and metrics).
loadcheck:
	$(GO) run ./cmd/loadsim $(LOADSIM_ARGS) > $(PLATFORM_BENCHOUT)
	$(GO) run ./cmd/benchcheck -baseline BENCH_platform.json -input $(PLATFORM_BENCHOUT)

# Coverage gate for the engine packages, enforced against the floors above.
cover:
	$(GO) test -coverprofile=$(COVERPROFILE) ./internal/cylog/ ./internal/cylog/reference/ ./internal/relstore/ ./internal/wal/
	$(GO) run ./cmd/covercheck -profile $(COVERPROFILE) \
		-floor internal/cylog=$(COVER_FLOOR_CYLOG) \
		-floor internal/cylog/reference=$(COVER_FLOOR_REFERENCE) \
		-floor internal/relstore=$(COVER_FLOOR_RELSTORE) \
		-floor internal/wal=$(COVER_FLOOR_WAL)

# Crash-replay differential gate: kills the crowd loop at randomized WAL
# write offsets (kill -9 via a child-process harness), recovers, and requires
# the resumed fixpoint, facts and pending request ids to be byte-identical to
# an uninterrupted reference run (workflow in README.md). Honors
# CYLOG_PARALLELISM like the tests.
crashcheck:
	$(GO) run ./cmd/walcheck -iterations $(CRASH_ITERS) -seed $(CRASH_SEED) -backend "$(CRASH_BACKEND)"

# Content-fuzz variant of the crash differential: answers carry adversarial
# string values (separators, control bytes, NULs, long runs) and the
# fingerprint additionally folds in per-column distinct-count statistics, so
# corrupted stats restoration fails the diff too.
crashcheck-content:
	$(GO) run ./cmd/walcheck -iterations $(CRASH_ITERS) -seed $(CRASH_SEED) -backend "$(CRASH_BACKEND)" -content-fuzz

# Coverage-guided fuzzing smoke for the untrusted-input surfaces: the binary
# snapshot importer, the CyLog parser and the WebSocket frame reader. Go
# allows one -fuzz target per invocation, hence one run per target. Crashers
# are saved under the package's testdata/fuzz/ — commit them; they become
# permanent regression seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzImportDatabaseBinary$$' -fuzztime $(FUZZTIME) ./internal/relstore/
	$(GO) test -run '^$$' -fuzz '^FuzzParser$$' -fuzztime $(FUZZTIME) ./internal/cylog/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/api/wire/

# Validates relative links (files and heading anchors) in README.md,
# EXPERIMENTS.md and docs/; no network access.
linkcheck:
	$(GO) test -run TestMarkdownLinks -count=1 ./internal/docs/

ci: build lint test test-sequential test-disk-backend bench-test linkcheck benchcheck cover crashcheck crashcheck-content
