// Command walcheck is the crash-replay verifier for the durable answer log:
// it proves that killing the platform at any write to the WAL — mid-record,
// mid-snapshot, between rounds — loses no committed answer and corrupts no
// state. It is the CI gate behind `make crashcheck` and a local debugging
// tool for the wal package.
//
//	go run ./cmd/walcheck -iterations 5 -edges 120 -seed 42
//
// Protocol, per iteration:
//
//  1. A reference run drives the full crowd scenario in-process (register a
//     CyLog project, attach a WAL, seed edge facts, generate tasks, answer
//     them with a deterministic oracle keyed on the request's key values)
//     and records the final engine fingerprint — every relation's tuples and
//     row count plus the sorted pending request ids — and the number of
//     physical WAL writes the run performs.
//  2. A child process (this binary with -child) re-runs the identical
//     scenario but SIGKILLs itself at a randomly chosen write, leaving a
//     torn log behind. kill -9 cannot be caught, so nothing is flushed or
//     finalized — exactly a process crash.
//  3. The parent recovers from the child's directory (snapshot + log-suffix
//     replay), resumes the same scenario to quiescence, and requires the
//     final fingerprint to be byte-identical to the reference.
//
// Every run's final state is also checked against the from-scratch reference
// evaluator (internal/cylog/reference): its facts and pending request ids must
// be what the program derives from the run's base facts.
//
// The oracle answers (and skips) requests as a pure function of the request
// key and the run seed, so a request whose answer the crash destroyed is
// re-asked and re-answered identically — the differential holds for every
// kill point. Fsync policy and snapshot cadence are randomized per iteration.
//
// With -content-fuzz the scenario swaps to a string-labelled open relation
// and answers carry adversarial values (control bytes, NULs, unicode, long
// runs) drawn from a per-iteration salt, so recovery must reproduce those
// bytes exactly: the answers pass through the task form, the engine, the WAL
// record codec and the snapshot codec before the fingerprint reads them.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/wal"
)

const crowdCyLog = `
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

// contentCyLog is the content-fuzz scenario: the open relation carries a
// free-text label column, so the adversarial answer values flow through the
// task form, the engine, the WAL record codec and the snapshot codec, and
// crash recovery must reproduce them byte-for-byte.
const contentCyLog = `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel endpoint(n: int).
open rel tag(n: int, label: string) key(n) asks "Label this endpoint".
rel tagged(n: int, label: string).
rel untagged(n: int).

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
endpoint(N) :- reach(_, N), !edge(N, _).
tagged(N, L) :- endpoint(N), tag(N, L).
untagged(N) :- endpoint(N), !tagged(N, _).
`

// adversarialLabels are the content shapes the fuzz mode cycles through:
// whitespace, quoting, control bytes, NULs, unicode, separators the codecs
// or the fingerprint might mis-handle, and a long run. Values are suffixed
// per request, so one relation holds many distinct labels.
var adversarialLabels = []string{
	"plain",
	"with space",
	"newline\nsplit",
	"tab\tsep",
	"quote\"'`",
	"unit\x1fsep",
	"nul\x00byte",
	"naïve-ünïcode-日本語",
	"comma,semicolon;pipe|colon:",
	" leading-and-trailing ",
	strings.Repeat("x", 1024),
}

// scenario is one deterministic crash-replay configuration.
type scenario struct {
	dir       string
	seed      int64
	edges     int
	policy    wal.SyncPolicy
	snapEvery int
	// killAt, when > 0, SIGKILLs the process immediately before the killAt-th
	// physical WAL write.
	killAt int
	// content switches to the content-fuzz scenario: a string-labelled open
	// relation answered with adversarial values drawn from salt — crash
	// recovery must reproduce the exact bytes.
	content bool
	salt    int64
	// backend selects the relstore backend for this run ("" = memory). The
	// parent's reference run always uses memory, so a disk-backed crash +
	// recovery must land on a fingerprint byte-identical to the memory
	// backend's — the storage seam adds no observable semantics.
	backend string
}

// label picks this request's adversarial answer value as a pure function of
// the content salt and the request key, so crash and resume submit identical
// bytes. The numeric suffix varies per key, so one relation holds many
// distinct labels.
func (s scenario) label(keyVals string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|label", s.salt, keyVals)
	v := h.Sum64()
	return fmt.Sprintf("%s#%d", adversarialLabels[v%uint64(len(adversarialLabels))], v%97)
}

// oracle decides, as a pure function of the request key and the run seed,
// whether a request is answered this lifetime and with what value. Crash and
// resume must make identical decisions for identical keys, or the
// differential would chase noise instead of durability bugs.
func (s scenario) oracle(keyVals string) (answer bool, ok bool) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", s.seed, keyVals)
	v := h.Sum64()
	return v%10 < 7, v%2 == 0 // answer 70% of requests; approve half
}

// run drives the scenario: recover-or-create the WAL, seed the edge chains,
// then generate-and-answer rounds until quiescent. It returns the final
// engine fingerprint digest and the total number of physical WAL writes.
func (s scenario) run() (string, int, error) {
	p := platform.New()
	p.SetClock(func() time.Time { return time.Date(2016, 9, 5, 9, 0, 0, 0, time.UTC) })
	if s.backend != "" {
		// A deliberately tiny budget so even this small scenario pages
		// relations in and out while crash-killing and recovering.
		p.SetStorage(platform.StorageOptions{Backend: s.backend, Dir: s.dir + "-store", BudgetBytes: 1 << 14})
	}
	source := crowdCyLog
	if s.content {
		source = contentCyLog
	}
	admin, err := p.RegisterProject(project.Description{
		Name: "crashcheck", Requester: "walcheck", CyLogSource: source,
	})
	if err != nil {
		return "", 0, err
	}
	id := admin.Description.ID

	writes := 0
	opts := wal.Options{Policy: s.policy, WriteObserver: func(kind string, n int) {
		writes++
		if s.killAt > 0 && writes == s.killAt {
			// Unflushed, uncatchable death at an arbitrary write boundary.
			proc, _ := os.FindProcess(os.Getpid())
			proc.Kill()
			select {} // the signal is asynchronous; never perform the write
		}
	}}
	l, err := wal.Open(s.dir, opts)
	if err != nil {
		return "", 0, err
	}
	defer l.Close()
	if _, err := p.RecoverProject(id, l, s.snapEvery); err != nil {
		return "", 0, err
	}
	eng := p.Engine(id)

	// Seed the edge chains. Inserts already recovered from the log
	// deduplicate silently, so re-seeding after a crash is a no-op.
	const chain = 10
	for i := 0; i < s.edges; i++ {
		base := (i / chain) * (chain + 1)
		if err := eng.AddFact("edge", base+i%chain, base+i%chain+1); err != nil {
			return "", 0, err
		}
	}

	rng := rand.New(rand.NewSource(s.seed))
	for round := 0; round < 200; round++ {
		created, err := p.GenerateTasksFromCyLog(id)
		if err != nil {
			return "", 0, err
		}
		answered := 0
		for _, tk := range created {
			key := taskKey(tk)
			doAnswer, approve := s.oracle(key)
			if !doAnswer {
				continue
			}
			fields := map[string]string{}
			if s.content {
				fields["label"] = s.label(key)
			} else if approve {
				fields["ok"] = "yes"
			} else {
				fields["ok"] = "no"
			}
			res := &task.Result{SubmittedBy: "sim", Fields: fields, Quality: 1}
			// Alternate the two submission paths so both commit points —
			// the round SubmitResult commits itself and the one the next
			// GenerateTasksFromCyLog commits — face random kill offsets.
			if rng.Intn(2) == 0 {
				err = p.SubmitResult(tk.ID, res)
			} else {
				err = p.SubmitResultBatched(tk.ID, res)
			}
			if err != nil {
				return "", 0, err
			}
			answered++
		}
		if len(created) == 0 && answered == 0 {
			break
		}
	}
	if err := l.Close(); err != nil {
		return "", 0, err
	}
	// The final state — recovered or not — must also be what the program
	// means: the from-scratch reference over the same base facts.
	if err := reference.Check(eng, reference.BaseFacts(eng)); err != nil {
		return "", 0, err
	}
	return fingerprint(eng), writes, nil
}

// taskKey reconstructs the request key from the generated task's inputs in
// sorted column order — stable across processes.
func taskKey(tk *task.Task) string {
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

// fingerprint digests the durable observables: every relation's sorted
// tuples and row count, plus the sorted pending request ids. Task-pool ids
// restart with the process and are deliberately excluded.
func fingerprint(e *cylog.Engine) string {
	h := sha256.New()
	for _, name := range e.Database().Names() {
		fmt.Fprintf(h, "%s:", name)
		for _, tup := range e.Facts(name) {
			fmt.Fprintf(h, "%v;", tup)
		}
		fmt.Fprintf(h, "rows=%d;", e.Database().Relation(name).Len())
	}
	var ids []string
	for _, r := range e.PendingRequests() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	fmt.Fprintf(h, "pending:%v", ids)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func main() {
	var (
		child       = flag.Bool("child", false, "internal: run one scenario and (optionally) self-kill")
		dir         = flag.String("dir", "", "WAL directory (child mode)")
		seed        = flag.Int64("seed", 1, "run seed (oracle decisions and kill points)")
		edges       = flag.Int("edges", 120, "edge facts per run (chains of 10)")
		iterations  = flag.Int("iterations", 5, "randomized kill points to test")
		policyFlag  = flag.Int("policy", 0, "fsync policy (child mode): 0=always 1=interval 2=off")
		snapEvery   = flag.Int("snapshot-every", 0, "snapshot cadence in appended records (child mode)")
		killAt      = flag.Int("kill-write", 0, "self-kill before this WAL write (child mode)")
		contentFuzz = flag.Bool("content-fuzz", false, "fuzz answer values: adversarial string labels per iteration, row counts included in the differential")
		contentSalt = flag.Int64("content-salt", 0, "content-fuzz label salt (child mode)")
		backend     = flag.String("backend", "", "relstore backend for crash+recovery runs: memory or disk (parent mode: \"\" cycles both across iterations; references always run on memory)")
	)
	flag.Parse()

	if *child {
		s := scenario{dir: *dir, seed: *seed, edges: *edges,
			policy: wal.SyncPolicy(*policyFlag), snapEvery: *snapEvery, killAt: *killAt,
			content: *contentFuzz, salt: *contentSalt, backend: *backend}
		digest, writes, err := s.run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "walcheck child:", err)
			os.Exit(1)
		}
		fmt.Printf("digest=%s writes=%d\n", digest, writes)
		return
	}

	if err := drive(*seed, *edges, *iterations, *contentFuzz, *backend); err != nil {
		fmt.Fprintln(os.Stderr, "walcheck: FAIL:", err)
		os.Exit(1)
	}
}

// drive runs the parent protocol: reference digest, then per-iteration
// randomized child crash + in-process recovery + differential. content
// switches every run to the content-fuzz scenario with a fresh label
// salt per iteration. backend pins the relstore backend for the crash and
// recovery runs; "" cycles memory and disk so the default CI invocation also
// proves disk-backed recovery lands on the memory backend's exact
// fingerprint (references always run on memory — that is the differential).
func drive(seed int64, edges, iterations int, content bool, backend string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	root, err := os.MkdirTemp("", "walcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	for iter := 0; iter < iterations; iter++ {
		policy := wal.SyncPolicy(rng.Intn(3))
		snapEvery := rng.Intn(4) // 0 disables snapshots
		salt := rng.Int63()
		iterBackend := backend
		if iterBackend == "" {
			iterBackend = []string{"memory", "disk"}[iter%2]
		}
		iterDir := fmt.Sprintf("%s/iter%d", root, iter)

		// Reference: the uninterrupted run under this iteration's exact
		// configuration. Its write count bounds the kill offset; its digest
		// is what every crashed-and-recovered run must reproduce.
		ref := scenario{dir: iterDir + "-ref", seed: seed, edges: edges, policy: policy, snapEvery: snapEvery,
			content: content, salt: salt}
		refDigest, refWrites, err := ref.run()
		if err != nil {
			return fmt.Errorf("iteration %d reference: %w", iter, err)
		}
		if refWrites < 2 {
			return fmt.Errorf("iteration %d: reference performed only %d WAL writes; scenario too small", iter, refWrites)
		}
		kill := 1 + rng.Intn(refWrites)

		crashDir := iterDir + "-crash"
		args := []string{
			"-child", "-dir", crashDir,
			"-seed", fmt.Sprint(seed), "-edges", fmt.Sprint(edges),
			"-policy", fmt.Sprint(int(policy)), "-snapshot-every", fmt.Sprint(snapEvery),
			"-kill-write", fmt.Sprint(kill),
			"-backend", iterBackend,
		}
		if content {
			args = append(args, "-content-fuzz", "-content-salt", fmt.Sprint(salt))
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		err = cmd.Run()
		if err == nil {
			return fmt.Errorf("iteration %d: child survived its kill point (write %d of %d)", iter, kill, refWrites)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ProcessState.ExitCode() != -1 {
			return fmt.Errorf("iteration %d: child died oddly (want SIGKILL): %v", iter, err)
		}

		// Recover in this process from whatever the kill left behind and
		// resume the identical scenario to quiescence.
		resume := scenario{dir: crashDir, seed: seed, edges: edges, policy: policy, snapEvery: snapEvery,
			content: content, salt: salt, backend: iterBackend}
		gotDigest, _, err := resume.run()
		if err != nil {
			return fmt.Errorf("iteration %d: recovery after kill at write %d/%d (policy=%s snapshot-every=%d): %w",
				iter, kill, refWrites, policy, snapEvery, err)
		}
		if gotDigest != refDigest {
			return fmt.Errorf("iteration %d: recovered digest %s != reference %s (seed=%d kill=%d/%d policy=%s snapshot-every=%d backend=%s)",
				iter, gotDigest[:12], refDigest[:12], seed, kill, refWrites, policy, snapEvery, iterBackend)
		}
		fmt.Printf("walcheck: iteration %d ok — killed at write %d/%d, policy=%s, snapshot-every=%d, backend=%s, digest %s\n",
			iter, kill, refWrites, policy, snapEvery, iterBackend, refDigest[:12])
	}
	mode := "answers"
	if content {
		mode = "content-fuzzed answers"
	}
	fmt.Printf("walcheck: PASS — %d randomized kill points with %s recovered byte-identically (seed=%d, rerun with -seed to reproduce)\n",
		iterations, mode, seed)
	return nil
}
