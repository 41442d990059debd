package platform

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
)

// backendDiffCyLog is the differential's crowd scenario: recursive reach over
// seeded edges, open approval requests on the endpoints. edge and approve are
// base relations (managed and paged by the disk backend); the rest are IDB —
// volatile, recomputed each fixpoint.
const backendDiffCyLog = `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel endpoint(n: int).
open rel approve(n: int, ok: bool) key(n) asks "Approve this endpoint".
rel approved(n: int).
rel rejected(n: int).

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
endpoint(N) :- reach(_, N), !edge(N, _).
approved(N) :- endpoint(N), approve(N, true).
rejected(N) :- endpoint(N), !approved(N).
`

// backendOracle answers deterministically from the request key and seed, so
// every backend run sees the identical answer stream.
func backendOracle(seed int64, key string) (answer, approve bool) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	v := h.Sum64()
	return v%10 < 8, v%2 == 0
}

// backendTaskKey rebuilds the request key from a generated task's inputs in
// sorted column order.
func backendTaskKey(tk *task.Task) string {
	cols := make([]string, 0, len(tk.Input))
	for c := range tk.Input {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	parts := make([]string, 0, len(cols))
	for _, c := range cols {
		parts = append(parts, c+"="+tk.Input[c])
	}
	return strings.Join(parts, ",")
}

// backendFingerprint digests the durable observables of an engine: every
// relation's tuples and the sorted pending request ids.
func backendFingerprint(e *cylog.Engine) string {
	h := sha256.New()
	for _, name := range e.Database().Names() {
		fmt.Fprintf(h, "%s:", name)
		for _, tup := range e.Facts(name) {
			fmt.Fprintf(h, "%v;", tup)
		}
	}
	var ids []string
	for _, r := range e.PendingRequests() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	fmt.Fprintf(h, "pending:%v", ids)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// driveBackendLoop runs the crowd loop on one storage configuration and
// returns the per-round fingerprints. GenerateTasksFromCyLog and every
// SubmitResult commit through CommitRound — the commit the service layer
// uses, so a disk-backed project exercises Maintain (eviction) at every
// commit — and every round must leave the facts and pending requests of the
// from-scratch reference.
func driveBackendLoop(t *testing.T, storage StorageOptions, seed int64, edges int) []string {
	t.Helper()
	p := New()
	p.SetClock(func() time.Time { return time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC) })
	p.SetStorage(storage)
	admin, err := p.RegisterProject(project.Description{Name: "backend-diff", CyLogSource: backendDiffCyLog})
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	eng := p.Engine(id)

	const chain = 7
	for i := 0; i < edges; i++ {
		base := (i / chain) * (chain + 1)
		if err := eng.AddFact("edge", base+i%chain, base+i%chain+1); err != nil {
			t.Fatal(err)
		}
	}

	var prints []string
	for round := 0; round < 50; round++ {
		created, err := p.GenerateTasksFromCyLog(id)
		if err != nil {
			t.Fatal(err)
		}
		// Task generation commits the previous round's answers: the engine
		// is at a fixpoint here.
		if err := reference.Check(eng, reference.BaseFacts(eng)); err != nil {
			t.Fatalf("%s backend, round %d: %v", storage.Backend, round, err)
		}
		answered := 0
		for _, tk := range created {
			key := backendTaskKey(tk)
			doAnswer, approve := backendOracle(seed, key)
			if !doAnswer {
				continue
			}
			fields := map[string]string{"ok": "no"}
			if approve {
				fields["ok"] = "yes"
			}
			if err := p.SubmitResult(tk.ID, &task.Result{SubmittedBy: "sim", Fields: fields, Quality: 1}); err != nil {
				t.Fatal(err)
			}
			answered++
		}
		prints = append(prints, backendFingerprint(eng))
		if len(created) == 0 && answered == 0 {
			break
		}
	}
	return prints
}

// TestBackendDifferential is the storage seam's acceptance check: across
// randomized crowd scenarios, a disk-backed project with a budget tiny enough
// to page base relations in and out every round produces, round for round,
// fixpoints and pending request ids byte-identical to the memory backend's.
// Paging must be pure implementation detail; any divergence is an eviction,
// fault-in or snapshot-codec bug.
func TestBackendDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 4; iter++ {
		seed := rng.Int63()
		edges := 30 + rng.Intn(90)
		mem := driveBackendLoop(t, StorageOptions{Backend: "memory"}, seed, edges)
		disk := driveBackendLoop(t, StorageOptions{Backend: "disk", Dir: t.TempDir(), BudgetBytes: 1 << 10}, seed, edges)
		if len(mem) != len(disk) {
			t.Fatalf("iter %d (seed=%d edges=%d): memory ran %d rounds, disk %d",
				iter, seed, edges, len(mem), len(disk))
		}
		for r := range mem {
			if mem[r] != disk[r] {
				t.Fatalf("iter %d (seed=%d edges=%d): round %d fingerprints diverge:\nmemory %s\ndisk   %s",
					iter, seed, edges, r, mem[r][:16], disk[r][:16])
			}
		}
	}
}

// TestDiskBackendCrowdLoopWithinBudget is the acceptance criterion for state
// larger than memory: a relation set whose base relations exceed the byte
// budget completes the crowd loop on the disk backend, paging relations in
// and out, and ends each commit with the resident estimate within budget.
func TestDiskBackendCrowdLoopWithinBudget(t *testing.T) {
	p := New()
	p.SetClock(func() time.Time { return time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC) })
	const budget = 4 << 10
	p.SetStorage(StorageOptions{Backend: "disk", Dir: t.TempDir(), BudgetBytes: budget})
	admin, err := p.RegisterProject(project.Description{Name: "over-budget", CyLogSource: backendDiffCyLog})
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	eng := p.Engine(id)

	// ~600 edge tuples is well past the 4 KiB budget on its own.
	const chain = 7
	for i := 0; i < 600; i++ {
		base := (i / chain) * (chain + 1)
		if err := eng.AddFact("edge", base+i%chain, base+i%chain+1); err != nil {
			t.Fatal(err)
		}
	}

	answeredTotal := 0
	for round := 0; round < 50; round++ {
		created, err := p.GenerateTasksFromCyLog(id)
		if err != nil {
			t.Fatal(err)
		}
		answered := 0
		for _, tk := range created {
			doAnswer, approve := backendOracle(99, backendTaskKey(tk))
			if !doAnswer {
				continue
			}
			fields := map[string]string{"ok": "no"}
			if approve {
				fields["ok"] = "yes"
			}
			if err := p.SubmitResult(tk.ID, &task.Result{SubmittedBy: "sim", Fields: fields, Quality: 1}); err != nil {
				t.Fatal(err)
			}
			answered++
		}
		answeredTotal += answered
		// Every commit ends with a Maintain pass; the resident estimate must
		// be back under budget before the next round starts.
		s, ok := p.BackendStats(id)
		if !ok || s.Backend != "disk" {
			t.Fatalf("BackendStats = %+v, %v; want disk backend stats", s, ok)
		}
		if s.ResidentBytes > s.BudgetBytes {
			t.Fatalf("round %d: resident %d bytes exceeds budget %d", round, s.ResidentBytes, s.BudgetBytes)
		}
		if len(created) == 0 && answered == 0 {
			break
		}
	}
	if answeredTotal == 0 {
		t.Fatal("scenario answered nothing; over-budget loop not exercised")
	}
	s, _ := p.BackendStats(id)
	if s.Evictions == 0 || s.SegmentWrites == 0 {
		t.Fatalf("stats = %+v; an over-budget loop must have evicted and written segments", s)
	}
	if s.Faults == 0 {
		t.Fatalf("stats = %+v; evicted base relations must have faulted back in during later rounds", s)
	}
	// The fixpoint itself must be exactly what a memory-backed run computes.
	if got := eng.Database().Relation("approved").Len() + eng.Database().Relation("rejected").Len(); got == 0 {
		t.Fatal("crowd loop derived nothing")
	}
}
