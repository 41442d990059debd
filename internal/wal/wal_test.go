package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
)

// Shared harness: a small crowd program (transitive closure + an open
// approval relation), an engine factory, and a state fingerprint covering
// every relation's tuples plus the sorted pending request ids — the exact
// observables the crash-replay differential compares.

const testProgram = `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
open rel approve(n: int, ok: bool) key(n) asks "Approve this node".
rel approved(n: int).
rel rejected(n: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
approved(N) :- reach(_, N), approve(N, true).
rejected(N) :- reach(_, N), !approved(N).
`

func newTestEngine(t testing.TB) *cylog.Engine {
	t.Helper()
	e, err := cylog.NewEngine(cylog.MustParse(testProgram))
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(1)
	return e
}

// drain returns the engine's journal and trims it, as a commit does once
// it has appended the journal.
func drain(e *cylog.Engine) []cylog.FactOp {
	ops := e.Journal()
	e.TrimJournal(len(ops))
	return ops
}

func fingerprint(t testing.TB, e *cylog.Engine) string {
	t.Helper()
	var b strings.Builder
	for _, name := range e.Database().Names() {
		fmt.Fprintf(&b, "%s:", name)
		for _, tup := range e.Facts(name) {
			fmt.Fprintf(&b, "%v;", tup)
		}
		b.WriteString("\n")
	}
	ids := make([]string, 0)
	for _, r := range e.PendingRequests() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, "pending:%v\n", ids)
	return b.String()
}

// ingestChain drives the engine through a journaled crowd session — a chain
// of edges, a run, and answers for a subset of the approval requests —
// appending each drained journal slice as one WAL record. It returns the
// engine at its final fixpoint.
func ingestChain(t testing.TB, l *Log, nodes int, answerEvery int) *cylog.Engine {
	t.Helper()
	e := newTestEngine(t)
	e.SetJournaling(true)
	for i := 1; i < nodes; i++ {
		if err := e.AddFact("edge", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(drain(e)); err != nil {
		t.Fatal(err)
	}
	b := e.NewAnswerBatch()
	for i, r := range reqs {
		if i%answerEvery != 0 {
			continue
		}
		n, _ := r.Key()["n"].AsInt()
		if err := b.Answer(r.ID, map[string]any{"ok": n%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(drain(e)); err != nil {
		t.Fatal(err)
	}
	return e
}

func recoverFresh(t testing.TB, dir string) (*cylog.Engine, RecoveryStats) {
	t.Helper()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := newTestEngine(t)
	stats, err := l.Recover(e)
	if err != nil {
		t.Fatal(err)
	}
	return e, stats
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	live := ingestChain(t, l, 8, 2)
	st := l.Stats()
	if st.Appends != 2 || st.AppendedOps == 0 || st.LastSeq != 2 || st.Syncs < 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, rstats := recoverFresh(t, dir)
	if rstats.SnapshotSeq != 0 || rstats.RecordsReplayed != 2 || rstats.OpsReplayed != st.AppendedOps {
		t.Fatalf("recovery stats = %+v", rstats)
	}
	if rstats.OpsApplied != rstats.OpsReplayed {
		t.Fatalf("fresh recovery applied %d of %d ops", rstats.OpsApplied, rstats.OpsReplayed)
	}
	if got, want := fingerprint(t, rec), fingerprint(t, live); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	if rstats.PendingRequests != len(rec.PendingRequests()) {
		t.Fatalf("stats report %d pending, engine has %d", rstats.PendingRequests, len(rec.PendingRequests()))
	}
}

func TestSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := ingestChain(t, l, 8, 2)
	if _, err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	// More answers after the snapshot — the log suffix recovery must replay.
	b := live.NewAnswerBatch()
	for _, r := range live.PendingRequests() {
		n, _ := r.Key()["n"].AsInt()
		if err := b.Answer(r.ID, map[string]any{"ok": n%3 == 0}); err != nil {
			t.Fatal(err)
		}
		break // answer just one
	}
	if _, err := live.RunIncremental(b); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(drain(live)); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Snapshots != 1 || st.SnapshotSeq != 2 || st.LastSeq != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, rstats := recoverFresh(t, dir)
	if rstats.SnapshotSeq != 2 || rstats.RecordsReplayed != 1 {
		t.Fatalf("recovery stats = %+v", rstats)
	}
	if rstats.SnapshotRelations == 0 {
		t.Fatal("snapshot restored no relations")
	}
	if got, want := fingerprint(t, rec), fingerprint(t, live); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

func TestTruncateObsolete(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := ingestChain(t, l, 6, 2)
	if _, err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateObsolete(); err != nil {
		t.Fatal(err)
	}
	// Only the newest snapshot file survives, and the log holds no records
	// the snapshot already covers.
	snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %v, want 1", snaps)
	}
	recs, err := l.readRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("log still holds %d covered records", len(recs))
	}
	// Sequences keep increasing after truncation.
	if err := live.AddFact("edge", 100, 101); err != nil {
		t.Fatal(err)
	}
	if _, err := live.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(drain(live))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("post-truncate seq = %d, want 3", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, rstats := recoverFresh(t, dir)
	if rstats.SnapshotSeq != 2 || rstats.RecordsReplayed != 1 {
		t.Fatalf("recovery stats = %+v", rstats)
	}
	if got, want := fingerprint(t, rec), fingerprint(t, live); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

func TestAppendEmptyWritesNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, err := l.Append(nil)
	if err != nil || seq != 0 {
		t.Fatalf("Append(nil) = (%d, %v), want (0, nil)", seq, err)
	}
	if st := l.Stats(); st.Appends != 0 || st.AppendedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSyncPolicies(t *testing.T) {
	op := func(e *cylog.Engine) []cylog.FactOp {
		e.SetJournaling(true)
		if err := e.AddFact("edge", 1, 2); err != nil {
			t.Fatal(err)
		}
		return drain(e)
	}
	t.Run("off", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append(op(newTestEngine(t))); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Syncs != 0 {
			t.Fatalf("SyncOff issued %d syncs", st.Syncs)
		}
	})
	t.Run("interval", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Policy: SyncInterval, Interval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append(op(newTestEngine(t))); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Syncs != 0 {
			t.Fatalf("interval elapsed prematurely: %d syncs", st.Syncs)
		}
		l.lastSync = time.Now().Add(-2 * time.Hour)
		e := newTestEngine(t)
		e.SetJournaling(true)
		if err := e.AddFact("edge", 2, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(drain(e)); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Syncs != 1 {
			t.Fatalf("elapsed interval did not sync: %d syncs", st.Syncs)
		}
	})
	t.Run("always", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append(op(newTestEngine(t))); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Syncs != 1 {
			t.Fatalf("SyncAlways issued %d syncs, want 1", st.Syncs)
		}
	})
	for p, want := range map[SyncPolicy]string{SyncAlways: "always", SyncInterval: "interval", SyncOff: "off", SyncPolicy(9): "policy(9)"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestWriteObserverSeesRecordWrites(t *testing.T) {
	var kinds []string
	l, err := Open(t.TempDir(), Options{Policy: SyncOff, WriteObserver: func(kind string, n int) {
		kinds = append(kinds, kind)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	live := ingestChain(t, l, 4, 2)
	if _, err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"log-magic", "append-header", "append-payload", "snapshot", "snapshot-rename"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("observer never saw %q: %v", want, kinds)
		}
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	rec, rstats := recoverFresh(t, filepath.Join(t.TempDir(), "fresh"))
	if rstats.SnapshotSeq != 0 || rstats.RecordsReplayed != 0 || rstats.TornBytesDropped != 0 {
		t.Fatalf("recovery stats = %+v", rstats)
	}
	// An empty directory recovers to the program's own fixpoint.
	want := newTestEngine(t)
	if _, err := want.Run(); err != nil {
		t.Fatal(err)
	}
	if got, w := fingerprint(t, rec), fingerprint(t, want); got != w {
		t.Fatalf("empty recovery differs:\n got %s\nwant %s", got, w)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("definitely not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("want bad-magic error")
	}
}
