package relstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fillRelation inserts n distinct wide-ish rows so residency estimates are
// comfortably non-trivial.
func fillRelation(t *testing.T, r *Relation, n, salt int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r.MustInsert(i, fmt.Sprintf("payload-%d-%d-0123456789abcdef", salt, i))
	}
}

func TestDiskBackendEvictAndFault(t *testing.T) {
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	r := d.MustCreate("cold", MustSchema("x:int", "s:string"))
	fillRelation(t, r, 100, 1)
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
	if !r.paged.Load() {
		t.Fatal("relation still resident after Maintain under a 1-byte budget")
	}
	s := b.Stats()
	if s.Evictions != 1 || s.SegmentWrites != 1 || s.ResidentRelations != 0 {
		t.Fatalf("stats after evict = %+v, want 1 eviction, 1 segment write, 0 resident", s)
	}
	// First content access faults the segment back in, byte-exact.
	if r.Len() != 100 || !contains(r, NewTuple(7, "payload-1-7-0123456789abcdef")) {
		t.Fatal("faulted contents differ from what was evicted")
	}
	if r.paged.Load() {
		t.Fatal("relation still marked paged after access")
	}
	if got := b.Stats().Faults; got != 1 {
		t.Fatalf("faults = %d, want 1", got)
	}
}

func TestDiskBackendCleanEvictionSkipsRewrite(t *testing.T) {
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	r := d.MustCreate("cold", MustSchema("x:int", "s:string"))
	fillRelation(t, r, 50, 2)
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
	r.Len() // fault back in, no mutation
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	if s.SegmentWrites != 1 {
		t.Fatalf("segment writes = %d, want 1 (clean re-eviction must reuse the segment)", s.SegmentWrites)
	}
}

func TestDiskBackendBudgetKeepsHotSet(t *testing.T) {
	// Budget sized for roughly two of the four relations: after Maintain the
	// resident estimate must fit the budget, and the most recently touched
	// relation must be among the survivors.
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	rels := make([]*Relation, 4)
	for i := range rels {
		rels[i] = d.MustCreate(fmt.Sprintf("rel%d", i), MustSchema("x:int", "s:string"))
		fillRelation(t, rels[i], 60, i)
		if err := b.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	// Touch rel3 last, then rebalance.
	rels[3].Len()
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.ResidentBytes > s.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d after Maintain", s.ResidentBytes, s.BudgetBytes)
	}
	if s.Relations != 4 {
		t.Fatalf("relations = %d, want 4", s.Relations)
	}
	if s.ResidentRelations == 0 {
		t.Fatal("budget should keep at least the hot relation resident")
	}
	if rels[3].paged.Load() {
		t.Fatal("most recently touched relation was evicted")
	}
	// Everything still answers correctly regardless of residency.
	for i, r := range rels {
		if r.Len() != 60 {
			t.Fatalf("rel%d: Len = %d, want 60", i, r.Len())
		}
	}
}

func TestDiskBackendOverBudgetRelationStaysUsable(t *testing.T) {
	// A single relation bigger than the whole budget: it pages out when cold
	// but faults back and stays usable while being the working set.
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	r := d.MustCreate("big", MustSchema("x:int", "s:string"))
	fillRelation(t, r, 200, 9)
	for round := 0; round < 3; round++ {
		if err := b.Maintain(); err != nil {
			t.Fatal(err)
		}
		if got, want := r.Len(), 200+round; got != want {
			t.Fatalf("round %d: Len = %d, want %d", round, got, want)
		}
		r.MustInsert(1000+round, "new-row")
	}
	if r.Len() != 203 {
		t.Fatalf("final Len = %d, want 203", r.Len())
	}
}

func TestDiskBackendVolatileExempt(t *testing.T) {
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	d.Backend().MarkVolatile("derived")
	r := d.MustCreate("derived", MustSchema("x:int"))
	r.MustInsert(1)
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
	if r.paged.Load() || r.pager != nil {
		t.Fatal("volatile relation must never be managed by the pager")
	}
	if got := b.Stats().Relations; got != 0 {
		t.Fatalf("stats count %d managed relations, want 0 (volatile exempt)", got)
	}
}

func TestDiskBackendWipesStaleSegments(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef.seg")
	if err := os.WriteFile(stale, []byte("junk from a previous process"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskBackend(DiskOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale segment survived NewDiskBackend (segments are cache, the WAL is truth)")
	}
}

func TestDiskBackendSegmentCorruptionPanics(t *testing.T) {
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	r := d.MustCreate("bits", MustSchema("x:int", "s:string"))
	fillRelation(t, r, 40, 3)
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(b.segPath("bits"))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(b.segPath("bits"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("faulting a corrupt segment must panic, not serve wrong contents")
		}
	}()
	r.Len()
}

func TestDiskBackendImportSnapshotSpills(t *testing.T) {
	// Build a multi-relation snapshot on memory, import it into a
	// tiny-budget disk backend: the import must succeed with the post-import
	// resident set within budget, not hold every relation in memory.
	src := NewDatabase()
	for ri := 0; ri < 6; ri++ {
		r := src.MustCreate(fmt.Sprintf("rel%d", ri), MustSchema("x:int", "s:string"))
		fillRelation(t, r, 80, ri)
	}
	var snap bytes.Buffer
	if err := src.ExportSnapshot(nil, &snap); err != nil {
		t.Fatal(err)
	}

	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	names, err := d.ImportSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("imported %d relations, want 6", len(names))
	}
	s := b.Stats()
	if s.ResidentBytes > s.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d right after import", s.ResidentBytes, s.BudgetBytes)
	}
	if s.Evictions == 0 {
		t.Fatal("import of an over-budget snapshot should have spilled relations")
	}
	// An export depends on the contents only, so re-exporting the imported
	// snapshot — from memory, and from disk partly streamed straight from
	// segments — reproduces it byte for byte.
	mem := NewDatabase()
	if _, err := mem.ImportSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*Database{"memory": mem, "disk": d} {
		var re bytes.Buffer
		if err := db.ExportSnapshot(nil, &re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), snap.Bytes()) {
			t.Fatalf("snapshot re-exported from the %s backend differs from the imported one", name)
		}
	}
}

// TestDiskBackendImportSnapshotSpillError checks that a spill failing
// between relations fails the import: the snapshot is larger than the
// budget and the segment directory is gone, so the first eviction cannot
// write its segment.
func TestDiskBackendImportSnapshotSpillError(t *testing.T) {
	src := NewDatabase()
	for ri := 0; ri < 3; ri++ {
		fillRelation(t, src.MustCreate(fmt.Sprintf("rel%d", ri), MustSchema("x:int", "s:string")), 80, ri)
	}
	var snap bytes.Buffer
	if err := src.ExportSnapshot(nil, &snap); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segments")
	b, err := NewDiskBackend(DiskOptions{Dir: dir, BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDatabaseWith(b).ImportSnapshot(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("import whose spill cannot write a segment: want error")
	}
}

func TestDiskBackendOptionErrors(t *testing.T) {
	if _, err := NewDiskBackend(DiskOptions{}); err == nil {
		t.Error("NewDiskBackend without a directory: want error")
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskBackend(DiskOptions{Dir: file}); err == nil {
		t.Error("NewDiskBackend over a regular file: want error")
	}
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats().BudgetBytes != DefaultDiskBudgetBytes {
		t.Errorf("budget = %d, want the default %d", b.Stats().BudgetBytes, DefaultDiskBudgetBytes)
	}
	if err := b.Close(); err != nil {
		t.Error(err)
	}
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

// TestDiskBackendExportSnapshotErrors covers ExportSnapshot's explicit name
// lists and its failures: an absent relation, a failing writer, and a paged
// out relation whose segment is gone or damaged.
func TestDiskBackendExportSnapshotErrors(t *testing.T) {
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	mem := NewDatabase()
	for _, db := range []*Database{d, mem} {
		fillRelation(t, db.MustCreate("b", MustSchema("x:int", "s:string")), 20, 1)
		fillRelation(t, db.MustCreate("a", MustSchema("x:int", "s:string")), 20, 2)
	}
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
	var fromDisk, fromMem bytes.Buffer
	if err := d.ExportSnapshot([]string{"b", "a"}, &fromDisk); err != nil {
		t.Fatal(err)
	}
	if err := mem.ExportSnapshot([]string{"a", "b"}, &fromMem); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDisk.Bytes(), fromMem.Bytes()) {
		t.Error("an explicit name list must export in sorted order, as the memory backend does")
	}
	if err := d.ExportSnapshot([]string{"missing"}, &bytes.Buffer{}); err == nil {
		t.Error("exporting an absent relation: want error")
	}
	if err := d.ExportSnapshot(nil, failingWriter{}); err == nil {
		t.Error("exporting into a failing writer: want error")
	}
	if err := os.WriteFile(b.segPath("a"), []byte("RS"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.ExportSnapshot(nil, &bytes.Buffer{}); err == nil {
		t.Error("exporting from a segment with a bad header: want error")
	}
	if err := os.Remove(b.segPath("a")); err != nil {
		t.Fatal(err)
	}
	if err := d.ExportSnapshot(nil, &bytes.Buffer{}); err == nil {
		t.Error("exporting from a missing segment: want error")
	}
}
