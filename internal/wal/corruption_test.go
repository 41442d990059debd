package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// Corruption table-tests: every way a crash or disk fault can damage the log
// — torn header, torn payload, a bit flip mid-record, duplicated records,
// snapshots outrunning the log tail, corrupt snapshots — must either recover
// the longest valid prefix or fall back to older state, never error out or
// resurrect damaged data.

// buildLogDir ingests a 6-node chain (two records) and closes the log,
// returning the directory, the log file path, and the live engine's
// fingerprint for comparison.
func buildLogDir(t *testing.T) (dir, logPath string, liveFP string) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := ingestChain(t, l, 6, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, logName), fingerprint(t, live)
}

// prefixFingerprint recovers a fresh engine from only the first record
// (edges, no answers) — the state a one-record prefix must reproduce.
func prefixFingerprint(t *testing.T) string {
	t.Helper()
	e := newTestEngine(t)
	for i := 1; i < 6; i++ {
		if err := e.AddFact("edge", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, e)
}

// recordOffsets parses the raw log file into per-record offsets.
func recordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	off := len(logMagic)
	for off+8 <= len(data) {
		offs = append(offs, off)
		length := binary.LittleEndian.Uint32(data[off : off+4])
		off += 8 + int(length)
	}
	if off != len(data) {
		t.Fatalf("log does not parse cleanly: offset %d of %d", off, len(data))
	}
	return offs
}

func TestCorruptionTornAndFlipped(t *testing.T) {
	cases := []struct {
		name string
		// mutate damages the raw log bytes.
		mutate func(t *testing.T, data []byte) []byte
		// wantFP selects the expected recovered fingerprint: "full" (both
		// records survive), "prefix" (only record 1), "empty" (none).
		wantFP string
	}{
		{"torn header", func(t *testing.T, d []byte) []byte { return append(d, 0x33, 0x44, 0x55) }, "full"},
		{"torn payload", func(t *testing.T, d []byte) []byte {
			// A full header promising 100 bytes, followed by only 5.
			h := make([]byte, 8)
			binary.LittleEndian.PutUint32(h[:4], 100)
			return append(append(d, h...), 1, 2, 3, 4, 5)
		}, "full"},
		{"flipped byte in final record", func(t *testing.T, d []byte) []byte {
			offs := recordOffsets(t, d)
			d[offs[1]+8+3] ^= 0xFF
			return d
		}, "prefix"},
		{"flipped byte in first record drops the rest", func(t *testing.T, d []byte) []byte {
			offs := recordOffsets(t, d)
			d[offs[0]+8+3] ^= 0xFF
			return d
		}, "empty"},
		{"flipped length header", func(t *testing.T, d []byte) []byte {
			offs := recordOffsets(t, d)
			binary.LittleEndian.PutUint32(d[offs[1]:offs[1]+4], 0xFFFFFFF0)
			return d
		}, "prefix"},
		{"duplicated final record", func(t *testing.T, d []byte) []byte {
			offs := recordOffsets(t, d)
			dup := append([]byte(nil), d[offs[1]:]...)
			return append(d, dup...)
		}, "full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, logPath, liveFP := buildLogDir(t)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			orig := len(data)
			data = tc.mutate(t, append([]byte(nil), data...))
			if err := os.WriteFile(logPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rec, rstats := recoverFresh(t, dir)
			var want string
			switch tc.wantFP {
			case "full":
				want = liveFP
			case "prefix":
				want = prefixFingerprint(t)
			case "empty":
				e := newTestEngine(t)
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				want = fingerprint(t, e)
			}
			if got := fingerprint(t, rec); got != want {
				t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
			}
			if len(data) != orig && tc.wantFP != "full" && rstats.TornBytesDropped == 0 {
				t.Fatalf("damage went unreported: %+v", rstats)
			}
			// Reopening after recovery must be clean: the torn tail was
			// physically truncated, so a second Open drops nothing.
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st := l2.Stats(); st.TornBytesDropped != 0 {
				t.Fatalf("second open still drops %d bytes", st.TornBytesDropped)
			}
			l2.Close()
		})
	}
}

func TestDuplicateRecordReplayIsIdempotent(t *testing.T) {
	dir, logPath, liveFP := buildLogDir(t)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	// Duplicate the answers record (record 2) twice more.
	dup := append([]byte(nil), data[offs[1]:]...)
	data = append(append(data, dup...), dup...)
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, rstats := recoverFresh(t, dir)
	if rstats.RecordsReplayed != 4 {
		t.Fatalf("replayed %d records, want 4", rstats.RecordsReplayed)
	}
	if rstats.OpsApplied >= rstats.OpsReplayed {
		t.Fatalf("duplicate ops should apply nothing: %+v", rstats)
	}
	if got := fingerprint(t, rec); got != liveFP {
		t.Fatalf("duplicated replay diverged:\n got %s\nwant %s", got, liveFP)
	}
}

func TestSnapshotNewerThanLogTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := ingestChain(t, l, 6, 2)
	if _, err := l.Snapshot(live); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the whole log tail: only the magic remains, so the snapshot (seq
	// 2) is now newer than every log record.
	if err := os.Truncate(filepath.Join(dir, logName), int64(len(logMagic))); err != nil {
		t.Fatal(err)
	}
	rec, rstats := recoverFresh(t, dir)
	if rstats.SnapshotSeq != 2 || rstats.RecordsReplayed != 0 {
		t.Fatalf("recovery stats = %+v", rstats)
	}
	if got, want := fingerprint(t, rec), fingerprint(t, live); got != want {
		t.Fatalf("snapshot-only recovery differs:\n got %s\nwant %s", got, want)
	}

	// New appends must sequence above the snapshot, or the next recovery
	// would consider them covered and drop them.
	l2, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.LastSeq != 2 {
		t.Fatalf("reopened LastSeq = %d, want snapshot seq 2", st.LastSeq)
	}
	live.SetJournaling(true)
	if err := live.AddFact("edge", 50, 51); err != nil {
		t.Fatal(err)
	}
	if _, err := live.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	seq, err := l2.Append(drain(live))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("append after snapshot-covered log got seq %d, want 3", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, rstats2 := recoverFresh(t, dir)
	if rstats2.RecordsReplayed != 1 {
		t.Fatalf("post-snapshot append not replayed: %+v", rstats2)
	}
	if got, want := fingerprint(t, rec2), fingerprint(t, live); got != want {
		t.Fatalf("recovery after re-append differs:\n got %s\nwant %s", got, want)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := ingestChain(t, l, 6, 2)
	if _, err := l.Snapshot(live); err != nil { // snap-2
		t.Fatal(err)
	}
	live.SetJournaling(true)
	if err := live.AddFact("edge", 60, 61); err != nil {
		t.Fatal(err)
	}
	if _, err := live.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(drain(live)); err != nil { // record 3
		t.Fatal(err)
	}
	if _, err := l.Snapshot(live); err != nil { // snap-3
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the newest snapshot's body.
	newest := filepath.Join(dir, "snap-0000000000000003.bin")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, rstats := recoverFresh(t, dir)
	if rstats.CorruptSnapshots != 1 || rstats.SnapshotSeq != 2 {
		t.Fatalf("recovery stats = %+v", rstats)
	}
	if rstats.RecordsReplayed != 1 {
		t.Fatalf("fallback should replay record 3: %+v", rstats)
	}
	if got, want := fingerprint(t, rec), fingerprint(t, live); got != want {
		t.Fatalf("fallback recovery differs:\n got %s\nwant %s", got, want)
	}
}

func TestInterruptedSnapshotTmpIsSwept(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapPrefix+"0000000000000009"+snapSuffix+".tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp snapshot not swept: %v", err)
	}
	if st := l.Stats(); st.SnapshotSeq != 0 {
		t.Fatalf("tmp file counted as snapshot: %+v", st)
	}
}
