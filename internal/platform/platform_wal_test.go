package platform

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/wal"
)

// engineFingerprint captures the durable observables the crash differential
// compares: every relation's sorted tuples plus the sorted pending request
// ids. Task-pool state is deliberately excluded — task ids restart with the
// process; only engine state must survive byte-identically.
func engineFingerprint(e *cylog.Engine) string {
	var b strings.Builder
	for _, name := range e.Database().Names() {
		fmt.Fprintf(&b, "%s:", name)
		for _, tup := range e.Facts(name) {
			fmt.Fprintf(&b, "%v;", tup)
		}
		b.WriteString("\n")
	}
	var ids []string
	for _, r := range e.PendingRequests() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, "pending:%v\n", ids)
	return b.String()
}

func eventKinds(p *Platform) map[string]int {
	kinds := map[string]int{}
	for _, e := range p.Events() {
		kinds[e.Kind]++
	}
	return kinds
}

// runAnsweredRound generates the round's tasks and answers every one through
// the batched submission path with a deterministic oracle keyed on the task's
// input, then returns how many tasks it answered.
func runAnsweredRound(t *testing.T, p *Platform, id project.ID) int {
	t.Helper()
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range created {
		fields := map[string]string{}
		for _, f := range tk.Form.Fields {
			if f.Kind == task.FieldSelect {
				fields[f.Name] = "yes"
			} else {
				fields[f.Name] = "answer-" + tk.Input["sid"]
			}
		}
		var submit func(task.ID, *task.Result) error = p.SubmitResultBatched
		if i%2 == 1 {
			submit = p.SubmitResult // alternate the immediate path
		}
		if err := submit(tk.ID, &task.Result{SubmittedBy: "w1", Fields: fields, Quality: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return len(created)
}

func TestAttachWALPersistsRounds(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(id, l, 0); err != nil {
		t.Fatal(err)
	}

	// Drive rounds until quiescent: translate both sentences, then check both.
	for rounds := 0; rounds < 5; rounds++ {
		if n := runAnsweredRound(t, p, id); n == 0 {
			break
		}
	}
	if _, err := p.GenerateTasksFromCyLog(id); err != nil { // commit the last round
		t.Fatal(err)
	}
	live := p.Engine(id)
	if got := len(live.Facts("final")); got != 2 {
		t.Fatalf("final = %d facts, want 2", got)
	}
	st, ok := p.WALStats(id)
	if !ok || st.Appends == 0 || st.AppendedOps == 0 {
		t.Fatalf("WAL saw no appends (AttachWAL must enable engine journaling): %+v (ok=%v)", st, ok)
	}
	kinds := eventKinds(p)
	if kinds["wal-append"] != st.Appends {
		t.Fatalf("wal-append events = %d, stats report %d appends", kinds["wal-append"], st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A second platform recovers the project to the same engine state.
	p2, _ := newPlatformWithCrowd(t, 10)
	admin2, err := p2.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rstats, err := p2.RecoverProject(admin2.Description.ID, l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", rstats)
	}
	if got, want := engineFingerprint(p2.Engine(admin2.Description.ID)), engineFingerprint(live); got != want {
		t.Fatalf("recovered engine differs:\n got %s\nwant %s", got, want)
	}
	// Journaling stays on for the next epoch: an ingestion after recovery
	// reaches the log at the next commit.
	if err := p2.AddFact(admin2.Description.ID, "sentence", 3, "Good night"); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.CommitRound(admin2.Description.ID); err != nil {
		t.Fatal(err)
	}
	if st, _ := p2.WALStats(admin2.Description.ID); st.Appends != 1 {
		t.Fatalf("WAL appends after recovery and one ingestion = %d, want 1 (RecoverProject must leave journaling enabled)", st.Appends)
	}
	if eventKinds(p2)["wal-recovered"] != 1 {
		t.Fatalf("events = %v, want one wal-recovered", eventKinds(p2))
	}
}

func TestWALSnapshotCadence(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(id, l, 1); err != nil { // snapshot after every append
		t.Fatal(err)
	}
	for rounds := 0; rounds < 5; rounds++ {
		if n := runAnsweredRound(t, p, id); n == 0 {
			break
		}
	}
	if _, err := p.GenerateTasksFromCyLog(id); err != nil {
		t.Fatal(err)
	}
	st, _ := p.WALStats(id)
	if st.Snapshots == 0 || st.SnapshotSeq == 0 {
		t.Fatalf("cadence 1 wrote no snapshots: %+v", st)
	}
	if eventKinds(p)["wal-snapshot"] != st.Snapshots {
		t.Fatalf("events = %v, stats = %+v", eventKinds(p), st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery from snapshot + suffix matches the live engine.
	p2, _ := newPlatformWithCrowd(t, 10)
	admin2, _ := p2.RegisterProject(translationProject())
	l2, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rstats, err := p2.RecoverProject(admin2.Description.ID, l2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.SnapshotSeq == 0 {
		t.Fatalf("recovery ignored the snapshots: %+v", rstats)
	}
	if got, want := engineFingerprint(p2.Engine(admin2.Description.ID)), engineFingerprint(p.Engine(id)); got != want {
		t.Fatalf("recovered engine differs:\n got %s\nwant %s", got, want)
	}
}

// TestFailedAppendIsAppendedByTheNextCommit closes the project's log before
// a commit, so the commit's append fails, then reattaches the log on the
// same directory and commits the next answer. The failed round's answer
// stays applied in the live engine, so it must reach the log with the next
// round's: a recovery of the log must equal the live engine.
func TestFailedAppendIsAppendedByTheNextCommit(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 1)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(id, l, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommitRound(id); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageAnswer(id, "translated|1", map[string]any{"text": "a0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommitRound(id); err == nil {
		t.Fatal("a commit whose append fails succeeded")
	}
	if got := eventKinds(p)["wal-error"]; got != 1 {
		t.Fatalf("wal-error events = %d, want 1", got)
	}
	l, err = wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(id, l, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageAnswer(id, "translated|2", map[string]any{"text": "a1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommitRound(id); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	p2, _ := newPlatformWithCrowd(t, 1)
	admin2, err := p2.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := p2.RecoverProject(admin2.Description.ID, l2, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := engineFingerprint(p2.Engine(admin2.Description.ID)), engineFingerprint(p.Engine(id)); got != want {
		t.Fatalf("recovered engine differs from the live one:\n got %s\nwant %s", got, want)
	}
}

func TestAttachWALRequiresEngine(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 5)
	plain, err := p.RegisterProject(project.Description{Name: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := p.AttachWAL(plain.Description.ID, l, 0); err == nil {
		t.Error("attaching to a project without an engine should fail")
	}
	if _, err := p.RecoverProject(plain.Description.ID, l, 0); err == nil {
		t.Error("recovering a project without an engine should fail")
	}
	if _, ok := p.WALStats(plain.Description.ID); ok {
		t.Error("WALStats should report no WAL")
	}
}

// TestConcurrentCommitRoundsSerialized hammers CommitRound from several
// goroutines — mostly empty rounds racing the rounds that carry staged
// answers — against a WAL-attached project, the commit pattern the HTTP
// layer makes reachable (deriver commits racing explicit POST .../fixpoint).
// Run under -race it is the regression gate for the per-project commit
// mutex: without it, concurrent commits interleave into wal.Log.Append and
// can publish a later round's "fixpoint" event before an earlier round's
// answers are durable. The test checks both ends of the contract: fixpoint
// events land in strictly increasing round order, and the log recovers to
// the exact live engine state.
func TestConcurrentCommitRoundsSerialized(t *testing.T) {
	const program = `
rel item(id: int).
open rel label(id: int, ok: bool) key(id) asks "ok?".
rel labeled(id: int).

labeled(I) :- item(I), label(I, true).
`
	const (
		items      = 64
		stagers    = 8
		committers = 4
	)
	p := New()
	admin, err := p.RegisterProject(project.Description{ID: "load", Name: "load", CyLogSource: program})
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(id, l, 3); err != nil {
		t.Fatal(err)
	}
	eng := p.Engine(id)
	for i := 1; i <= items; i++ {
		if err := eng.AddFact("item", i); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := p.CommitRound(id)
	if err != nil {
		t.Fatal(err)
	}
	requests := rc.Pending.All()
	if len(requests) != items {
		t.Fatalf("initial commit left %d requests, want %d", len(requests), items)
	}

	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := p.CommitRound(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < stagers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < items; i += stagers {
				if _, err := p.StageAnswer(id, requests[i].ID, map[string]any{"ok": true}); err != nil {
					t.Errorf("staging %s: %v", requests[i].ID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := p.CommitRound(id); err != nil { // flush whatever is still staged
		t.Fatal(err)
	}
	if got := len(eng.Facts("labeled")); got != items {
		t.Fatalf("labeled = %d facts, want %d (answers lost in concurrent commits)", got, items)
	}
	// The round contract: fixpoint events must appear in strictly increasing
	// round order — an empty round must not overtake the round whose answers
	// it would falsely declare durable.
	var last uint64
	for _, e := range p.Events() {
		if e.Kind != "fixpoint" {
			continue
		}
		if e.Round <= last {
			t.Fatalf("fixpoint round %d recorded after round %d", e.Round, last)
		}
		last = e.Round
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The concurrently written log recovers byte-identically.
	p2 := New()
	admin2, err := p2.RegisterProject(project.Description{ID: "load", Name: "load", CyLogSource: program})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := p2.RecoverProject(admin2.Description.ID, l2, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := engineFingerprint(p2.Engine(admin2.Description.ID)), engineFingerprint(eng); got != want {
		t.Fatalf("recovered engine differs:\n got %s\nwant %s", got, want)
	}
}

// TestSubmitResultDurableOnReturn: with a WAL attached, SubmitResult returns
// only once its round is appended, so a log closed right after the call
// recovers the answer and the check it derived, with no later commit.
func TestSubmitResultDurableOnReturn(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, err := p.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	id := admin.Description.ID
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AttachWAL(id, l, 0); err != nil {
		t.Fatal(err)
	}
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil || len(created) != 2 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	before, _ := p.WALStats(id)
	if err := p.SubmitResult(created[0].ID, &task.Result{
		SubmittedBy: "w1", Fields: map[string]string{"text": "Bonjour"}, Quality: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if after, _ := p.WALStats(id); after.Appends != before.Appends+1 {
		t.Fatalf("WAL appends across SubmitResult = %d, want 1", after.Appends-before.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	p2, _ := newPlatformWithCrowd(t, 10)
	admin2, err := p2.RegisterProject(translationProject())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := p2.RecoverProject(admin2.Description.ID, l2, 0); err != nil {
		t.Fatal(err)
	}
	recovered := p2.Engine(admin2.Description.ID)
	if got := fmt.Sprint(recovered.Facts("translated")); got != `[(1, "Bonjour")]` {
		t.Fatalf("recovered translated = %s, want the submitted answer", got)
	}
	if got, want := engineFingerprint(recovered), engineFingerprint(p.Engine(id)); got != want {
		t.Fatalf("recovered engine differs:\n got %s\nwant %s", got, want)
	}
}

func TestSubmitResultBatchedStagesUntilCommit(t *testing.T) {
	p, _ := newPlatformWithCrowd(t, 10)
	admin, _ := p.RegisterProject(translationProject())
	id := admin.Description.ID
	created, err := p.GenerateTasksFromCyLog(id)
	if err != nil || len(created) != 2 {
		t.Fatalf("created = %v, err = %v", created, err)
	}
	if err := p.SubmitResultBatched(created[0].ID, &task.Result{
		SubmittedBy: "w1", Fields: map[string]string{"text": "Bonjour"}, Quality: 1,
	}); err != nil {
		t.Fatal(err)
	}
	eng := p.Engine(id)
	if got := len(eng.Facts("translated")); got != 0 {
		t.Fatalf("batched submission leaked before commit: translated = %d", got)
	}
	if created[0].State() != task.StateCompleted {
		t.Errorf("task state = %v, want completed", created[0].State())
	}
	if _, err := p.GenerateTasksFromCyLog(id); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Facts("translated")); got != 1 {
		t.Fatalf("translated after commit = %d, want 1", got)
	}
	if err := p.SubmitResultBatched("nope", &task.Result{}); err == nil {
		t.Error("unknown task should fail")
	}
}
