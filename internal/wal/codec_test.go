package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// White-box tests for the record and op wire codec plus the maintenance
// paths (scan repair, truncation rewrite, snapshot validation) that the
// end-to-end crash tests only graze.

func sampleOp() cylog.FactOp {
	return cylog.FactOp{Kind: cylog.OpAnswer, RequestID: "approve#n=3",
		Relation: "approve", Tuple: relstore.Tuple{relstore.Int(3), relstore.Bool(true)}}
}

func TestParseRecordErrors(t *testing.T) {
	op := sampleOp()
	valid := []byte{recBatch}
	valid = binary.AppendUvarint(valid, 7)
	valid = binary.AppendUvarint(valid, 1)
	valid = appendOp(valid, op)

	if seq, ops, err := parseRecord(valid); err != nil || seq != 7 || len(ops) != 1 {
		t.Fatalf("valid record: seq=%d ops=%d err=%v", seq, len(ops), err)
	}

	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "unknown record type"},
		{"unknown-type", []byte{0xEE, 0x01}, "unknown record type"},
		{"missing-seq", []byte{recBatch}, "bad record sequence"},
		{"missing-count", []byte{recBatch, 0x07}, "bad record op count"},
		{"torn-count-varint", []byte{recBatch, 0x07, 0xFF}, "bad record op count"},
		{"count-exceeds-data", []byte{recBatch, 0x07, 0x05}, "bad record op count"},
		{"torn-op", []byte{recBatch, 0x07, 0x01, byte(cylog.OpAddFact)}, "record op 0"},
		{"trailing-bytes", append(append([]byte{}, valid...), 0x00), "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseRecord(tc.payload)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestDecodeOpErrors(t *testing.T) {
	op := sampleOp()
	enc := appendOp(nil, op)
	got, n, err := decodeOp(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decodeOp round trip: n=%d err=%v", n, err)
	}
	if got.Kind != op.Kind || got.RequestID != op.RequestID || got.Relation != op.Relation {
		t.Fatalf("decodeOp = %+v, want %+v", got, op)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated op"},
		{"missing-request-id", []byte{byte(cylog.OpAnswer)}, "request id"},
		{"missing-relation", []byte{byte(cylog.OpAnswer), 0x00}, "relation"},
		{"missing-tuple", []byte{byte(cylog.OpAnswer), 0x00, 0x00}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := decodeOp(tc.data); err == nil ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestDecodeStringErrors(t *testing.T) {
	if s, n, err := decodeString([]byte{0x02, 'h', 'i', 'x'}); err != nil || s != "hi" || n != 3 {
		t.Fatalf("decodeString = %q/%d/%v", s, n, err)
	}
	for name, data := range map[string][]byte{
		"empty":           nil,
		"torn-varint":     {0xFF},
		"length-past-end": {0x05, 'h', 'i'},
		"length-only":     {0x01},
	} {
		if _, _, err := decodeString(data); err == nil {
			t.Errorf("%s: decodeString accepted %v", name, data)
		}
	}
}

// A file torn inside the magic was never appended to: Open starts it over
// instead of rejecting the directory.
func TestScanRepairsFileTornInsideMagic(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, logName)
	if err := os.WriteFile(logPath, []byte(logMagic[:2]), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().TornBytesDropped; got != 2 {
		t.Fatalf("TornBytesDropped = %d, want 2", got)
	}
	if _, err := l.Append([]cylog.FactOp{{Kind: cylog.OpAddFact, Relation: "edge",
		Tuple: relstore.Tuple{relstore.Int(1), relstore.Int(2)}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.readRecords()
	if err != nil || len(recs) != 1 || recs[0].seq != 1 {
		t.Fatalf("after repair: records=%v err=%v", recs, err)
	}
}

// readRecords stops at garbage a concurrent writer (or test) slipped past
// scan: a torn header, and a record whose CRC holds but whose payload does
// not parse.
func TestReadRecordsStopsAtGarbage(t *testing.T) {
	appendRaw := func(t *testing.T, path string, b []byte) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("torn-header", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append([]cylog.FactOp{sampleOp()}); err != nil {
			t.Fatal(err)
		}
		appendRaw(t, filepath.Join(dir, logName), []byte{0xAB, 0xCD, 0xEF})
		recs, err := l.readRecords()
		if err != nil || len(recs) != 1 {
			t.Fatalf("records = %d, err = %v, want 1 valid record", len(recs), err)
		}
	})
	t.Run("valid-crc-bad-payload", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append([]cylog.FactOp{sampleOp()}); err != nil {
			t.Fatal(err)
		}
		payload := []byte{0xEE} // checksums fine, parses as nothing
		frame := make([]byte, 8, 8+len(payload))
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
		appendRaw(t, filepath.Join(dir, logName), append(frame, payload...))
		recs, err := l.readRecords()
		if err != nil || len(recs) != 1 {
			t.Fatalf("records = %d, err = %v, want 1 valid record", len(recs), err)
		}
	})
}

func TestTruncateObsoleteWithoutSnapshotsIsNoop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]cylog.FactOp{sampleOp()}); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateObsolete(); err != nil {
		t.Fatal(err)
	}
	if recs, err := l.readRecords(); err != nil || len(recs) != 1 {
		t.Fatalf("records = %d, err = %v, want untouched log", len(recs), err)
	}
}

// Truncating with records past the snapshot rewrites the log to exactly that
// suffix, and the rewritten log keeps accepting appends.
func TestTruncateObsoleteKeepsUncoveredSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := newTestEngine(t)
	e.SetJournaling(true)
	if err := e.AddFact("edge", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(drain(e)); err != nil { // record 1
		t.Fatal(err)
	}
	if _, err := l.Snapshot(e); err != nil { // covers seq 1
		t.Fatal(err)
	}
	if err := e.AddFact("edge", 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(drain(e)); err != nil { // record 2, uncovered
		t.Fatal(err)
	}
	if err := l.TruncateObsolete(); err != nil {
		t.Fatal(err)
	}
	recs, err := l.readRecords()
	if err != nil || len(recs) != 1 || recs[0].seq != 2 {
		t.Fatalf("after truncate: records=%+v err=%v, want only seq 2", recs, err)
	}
	if err := e.AddFact("edge", 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(drain(e)); err != nil { // record 3, post-truncate
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, stats := recoverFresh(t, dir)
	if stats.SnapshotSeq != 1 || stats.RecordsReplayed != 2 {
		t.Fatalf("recovery = %+v, want snapshot 1 + 2 replayed records", stats)
	}
	if got, want := fingerprint(t, rec), fingerprint(t, e); got != want {
		t.Fatalf("recovered engine differs:\n got %s\nwant %s", got, want)
	}
}

func TestSnapshotSyncOffSkipsSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := newTestEngine(t)
	if err := e.AddFact("edge", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Snapshot(e); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 0 || st.Snapshots != 1 {
		t.Fatalf("stats = %+v, want one unsynced snapshot", st)
	}
}

// Every way a snapshot file can lie — torn short, magic clobbered (with the
// checksum recomputed so only the magic check can catch it), a stored
// sequence that disagrees with the filename, an unparseable sequence — is
// rejected, and recovery falls back to replaying the full log.
func TestLoadSnapshotRejectsMalformedFiles(t *testing.T) {
	build := func(t *testing.T) (string, string, string) {
		t.Helper()
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		e := ingestChain(t, l, 4, 2)
		if _, err := l.Snapshot(e); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshots = %v, err = %v", snaps, err)
		}
		return dir, snaps[0], fingerprint(t, e)
	}
	reseal := func(t *testing.T, body []byte) []byte {
		t.Helper()
		var trailer [4]byte
		binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(body, crcTable))
		return append(body, trailer[:]...)
	}
	corruptions := map[string]func(t *testing.T, path string){
		"torn-short": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(snapMagic[:3]), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bad-magic-valid-crc": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body := append([]byte{}, data[:len(data)-4]...)
			body[0] ^= 0xFF
			if err := os.WriteFile(path, reseal(t, body), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bad-seq-varint": func(t *testing.T, path string) {
			body := append([]byte(snapMagic), 0xFF) // torn uvarint
			if err := os.WriteFile(path, reseal(t, body), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"seq-mismatch": func(t *testing.T, path string) {
			// The valid seq-2 snapshot renamed to claim seq 9: the checksum
			// holds, only the stored-sequence check can reject it.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			lied := filepath.Join(filepath.Dir(path), snapPrefix+"0000000000000009"+snapSuffix)
			if err := os.WriteFile(lied, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir, snapPath, liveFP := build(t)
			corrupt(t, snapPath)
			rec, stats := recoverFresh(t, dir)
			if stats.CorruptSnapshots != 1 || stats.SnapshotSeq != 0 {
				t.Fatalf("stats = %+v, want the snapshot rejected", stats)
			}
			if stats.RecordsReplayed != 2 {
				t.Fatalf("replayed %d records, want the full log", stats.RecordsReplayed)
			}
			if got := fingerprint(t, rec); got != liveFP {
				t.Fatalf("recovered engine differs:\n got %s\nwant %s", got, liveFP)
			}
		})
	}
}

// Files that merely look snapshot-ish (unparseable sequence in the name) are
// ignored rather than treated as recovery candidates.
func TestSnapshotSeqsSkipsForeignNames(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := os.WriteFile(filepath.Join(dir, snapPrefix+"garbage"+snapSuffix), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, err := l.snapshotSeqs()
	if err != nil || len(seqs) != 0 {
		t.Fatalf("seqs = %v, err = %v, want none", seqs, err)
	}
}

func TestCloseAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err == nil {
		t.Fatal("second Close should fail on the closed handle")
	}
}

// Recovery surfaces replay failures instead of silently skipping records: a
// log written against one program cannot replay into an engine whose program
// never declared those relations.
func TestRecoverErrors(t *testing.T) {
	t.Run("foreign-program", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		ingestChain(t, l, 4, 2)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		e, err := cylog.NewEngine(cylog.MustParse(`rel other(x: int).`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l2.Recover(e); err == nil ||
			!strings.Contains(err.Error(), "replaying record") {
			t.Fatalf("err = %v, want a replay failure", err)
		}
	})
	t.Run("directory-removed", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Recover(newTestEngine(t)); err == nil {
			t.Fatal("recover should fail once the directory is gone")
		}
	})
}

// Snapshot I/O failures abort cleanly: a blocked temp path fails the write,
// a blocked final path fails the rename (and removes the temp file).
func TestSnapshotIOFailures(t *testing.T) {
	snapName := snapPrefix + "0000000000000000" + snapSuffix
	t.Run("tmp-path-blocked", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := os.Mkdir(filepath.Join(dir, snapName+".tmp"), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Snapshot(newTestEngine(t)); err == nil {
			t.Fatal("snapshot should fail when its temp path is unwritable")
		}
	})
	t.Run("rename-blocked", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := os.Mkdir(filepath.Join(dir, snapName), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Snapshot(newTestEngine(t)); err == nil {
			t.Fatal("snapshot should fail when the final path is unrenamable")
		}
		if _, err := os.Stat(filepath.Join(dir, snapName+".tmp")); !os.IsNotExist(err) {
			t.Fatalf("failed snapshot left its temp file behind (err=%v)", err)
		}
	})
}

func TestTruncateObsoleteTmpBlocked(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]cylog.FactOp{sampleOp()}); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Snapshot(e); err != nil { // covers record 1, forcing a rewrite
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, logName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateObsolete(); err == nil {
		t.Fatal("truncate should fail when the rewrite path is unwritable")
	}
}

// A length header promising more bytes than the file holds stops the read at
// the last whole record.
func TestReadRecordsStopsAtOversizedLength(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]cylog.FactOp{sampleOp()}); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame[:4], 1<<20) // promises a megabyte
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := l.readRecords()
	if err != nil || len(recs) != 1 {
		t.Fatalf("records = %d, err = %v, want 1 valid record", len(recs), err)
	}
}

// An over-large batch is rejected before anything reaches the file.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := cylog.FactOp{Kind: cylog.OpAddFact, Relation: "edge",
		Tuple: relstore.Tuple{relstore.String(strings.Repeat("x", maxRecordSize))}}
	if _, err := l.Append([]cylog.FactOp{huge}); err == nil {
		t.Fatal("append should reject a record beyond maxRecordSize")
	}
	if recs, err := l.readRecords(); err != nil || len(recs) != 0 {
		t.Fatalf("records = %d, err = %v, want empty log", len(recs), err)
	}
}
