package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Disk-paged backend
//
// DiskBackend keeps cold base relations as segment files under a project
// directory and pins hot relations in memory by recent-touch accounting
// against a configurable byte budget. A segment is one relation's ExportBinary
// payload wrapped in a small CRC-checked envelope, so segment bytes are the
// RSB1 relation encoding — snapshot export can stream a paged-out relation
// straight from its segment and produce output byte-identical to the memory
// backend's.
//
// Segments are a spill cache, not durability: the WAL remains the single
// source of truth. NewDiskBackend therefore wipes stale segments at open —
// recovery rebuilds state from the WAL snapshot + log and re-spills. This
// keeps exactly one owner of crash consistency (the WAL) and makes a segment
// directory always safe to delete.
//
// Locking: the backend mutex (mu) is a leaf — it is never held while taking a
// relation lock or doing file I/O that could block on a relation. Eviction and
// fault-in synchronize on each relation's own lock plus its version counter,
// and rebalance passes are serialized by rebalanceMu.

// DefaultDiskBudgetBytes is the residency budget used when DiskOptions leaves
// BudgetBytes unset.
const DefaultDiskBudgetBytes int64 = 256 << 20

const (
	segMagic     = "RSG1"
	segSuffix    = ".seg"
	segTmpSuffix = ".seg.tmp"
)

var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DiskOptions configures NewDiskBackend.
type DiskOptions struct {
	// Dir is the segment directory. Required; created when absent. Stale
	// segments from a previous process are wiped at open (see package
	// comment above — segments are cache, the WAL is truth).
	Dir string
	// BudgetBytes caps the estimated heap bytes of resident managed
	// relations; <= 0 selects DefaultDiskBudgetBytes. A single relation
	// larger than the budget stays resident while in use — the budget
	// bounds the cold set, it cannot shrink the working set below one
	// relation.
	BudgetBytes int64
}

// diskEntry is the residency record of one managed (non-volatile) relation.
// All fields are guarded by DiskBackend.mu.
type diskEntry struct {
	rel *Relation
	// hasSegment reports a valid segment file for this relation.
	hasSegment bool
	// cleanVersion is rel.version at the moment the segment was written; the
	// segment matches memory exactly while rel.version == cleanVersion.
	cleanVersion uint64
	// segBytes is the segment payload size when hasSegment.
	segBytes int64
}

// DiskBackend implements Backend with lazy-loaded, budget-evicted segment
// storage. See the package comment block above for the design.
type DiskBackend struct {
	d      *Database
	dir    string
	budget int64

	// clock is the logical recency clock: bumped on every fault-in and at
	// the start of every rebalance pass. Relations record it on access
	// (Relation.lastTouch), giving coarse LRU without per-access locking.
	clock atomic.Uint64

	// rebalanceMu serializes eviction passes so concurrent faults and
	// Maintain calls do not double-evict.
	rebalanceMu sync.Mutex

	mu       sync.Mutex // leaf lock: entries, volatile set, counters
	entries  map[string]*diskEntry
	volatile map[string]bool

	faults        int64
	evictions     int64
	segmentWrites int64
	segmentBytes  int64
	// residentBytes is the resident estimate at the end of the last
	// rebalance pass, which Stats reports.
	residentBytes int64
}

// NewDiskBackend opens a disk-paged backend rooted at opts.Dir for
// NewDatabaseWith. The directory is created when absent and cleared of stale
// segments.
func NewDiskBackend(opts DiskOptions) (*DiskBackend, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("relstore: disk backend needs a segment directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("relstore: disk backend: %w", err)
	}
	ents, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("relstore: disk backend: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, segSuffix) || strings.HasSuffix(name, segTmpSuffix) {
			if err := os.Remove(filepath.Join(opts.Dir, name)); err != nil {
				return nil, fmt.Errorf("relstore: disk backend: clearing stale segment: %w", err)
			}
		}
	}
	budget := opts.BudgetBytes
	if budget <= 0 {
		budget = DefaultDiskBudgetBytes
	}
	return &DiskBackend{
		dir:      opts.Dir,
		budget:   budget,
		entries:  make(map[string]*diskEntry),
		volatile: make(map[string]bool),
	}, nil
}

// Name implements Backend.
func (b *DiskBackend) Name() string { return "disk" }

func (b *DiskBackend) attach(d *Database) {
	if b.d != nil {
		panic("relstore: backend already attached to a database")
	}
	b.d = d
}

// MarkVolatile implements Backend: the named relation, once created, is never
// paged (IDB relations are recomputed by the engine, which also holds direct
// pointers into them). Must run before the relation is created.
func (b *DiskBackend) MarkVolatile(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.volatile[name] = true
}

// OpenRelation implements Backend. Non-volatile relations get the pager hook
// and a residency entry; volatile ones are plain heap relations.
func (b *DiskBackend) OpenRelation(name string, schema *Schema) (*Relation, error) {
	r := NewRelation(name, schema)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.volatile[name] {
		return r, nil
	}
	r.pager = b
	r.lastTouch.Store(b.clock.Load())
	b.entries[name] = &diskEntry{rel: r}
	return r, nil
}

// ensure implements relationPager: record the touch, fault in when paged out.
func (b *DiskBackend) ensure(r *Relation) {
	r.lastTouch.Store(b.clock.Load())
	if r.paged.Load() {
		b.fault(r)
	}
}

// fault loads a paged-out relation's contents back from its segment. Segment
// corruption or loss is an invariant violation — the backend wrote the file
// itself this process and nothing else may touch the directory — so failures
// panic rather than silently returning an empty relation (the WAL can rebuild
// state after a restart; serving wrong contents cannot be undone).
func (b *DiskBackend) fault(r *Relation) {
	r.mu.Lock()
	if !r.paged.Load() {
		r.mu.Unlock()
		return
	}
	payload, err := b.readSegment(r.name)
	if err == nil {
		var src *Relation
		tmp := NewDatabase()
		src, err = importBinary(tmp, bytes.NewReader(payload), false)
		if err == nil {
			// Adopt contents only; r keeps its own version — the segment
			// was written clean, so they agree.
			r.adoptContentsLocked(src)
			r.paged.Store(false)
		}
	}
	r.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("relstore: disk backend: faulting relation %q: %v", r.name, err))
	}
	b.clock.Add(1)
	r.lastTouch.Store(b.clock.Load())
	b.mu.Lock()
	b.faults++
	b.mu.Unlock()
	b.rebalance()
}

// Maintain implements Backend: refresh size estimates and evict cold
// relations until the resident set fits the budget.
func (b *DiskBackend) Maintain() error {
	b.clock.Add(1)
	return b.rebalance()
}

// rebalance evicts least-recently-touched resident relations until the
// resident estimate fits the budget. Relations touched at the current clock
// value (the working set of the access that triggered us) are never victims,
// so a single over-budget relation stays resident while in use.
func (b *DiskBackend) rebalance() error {
	b.rebalanceMu.Lock()
	defer b.rebalanceMu.Unlock()
	for {
		victim, resident := b.pickVictim()
		if victim == nil {
			b.mu.Lock()
			b.residentBytes = resident
			b.mu.Unlock()
			return nil
		}
		if err := b.evict(victim); err != nil {
			return err
		}
	}
}

// pickVictim returns the resident total and, when it exceeds the budget, the
// coldest evictable resident entry (nil when every resident relation is in
// the current working set). Each relation keeps its size estimate current as
// tuples come and go (Relation.approxBytes), so sizing the resident set
// costs O(relations), not a walk of their tuples.
func (b *DiskBackend) pickVictim() (*diskEntry, int64) {
	b.mu.Lock()
	resident := make([]*diskEntry, 0, len(b.entries))
	for _, e := range b.entries {
		if !e.rel.paged.Load() {
			resident = append(resident, e)
		}
	}
	b.mu.Unlock()

	// Sized outside the backend lock: approxBytes takes the relation's read
	// lock.
	now := b.clock.Load()
	type sized struct {
		e     *diskEntry
		touch uint64
	}
	all := make([]sized, 0, len(resident))
	var total int64
	for _, e := range resident {
		total += e.rel.approxBytes()
		all = append(all, sized{e: e, touch: e.rel.lastTouch.Load()})
	}
	if total <= b.budget {
		return nil, total
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].touch != all[j].touch {
			return all[i].touch < all[j].touch
		}
		return all[i].e.rel.name < all[j].e.rel.name
	})
	for _, s := range all {
		if s.touch >= now {
			continue // current working set is pinned
		}
		return s.e, total
	}
	return nil, total
}

// evict flushes the entry's relation to its segment when dirty, then drops the
// in-memory contents. A relation mutated between flush and drop is left
// resident (the next rebalance retries with fresh bytes).
func (b *DiskBackend) evict(e *diskEntry) error {
	r := e.rel
	if r.paged.Load() {
		return nil
	}
	v0 := r.Version()
	b.mu.Lock()
	clean := e.hasSegment && e.cleanVersion == v0
	b.mu.Unlock()
	if !clean {
		var buf bytes.Buffer
		if err := ExportBinary(r, &buf); err != nil {
			return fmt.Errorf("relstore: disk backend: exporting %q: %w", r.name, err)
		}
		if r.Version() != v0 {
			return nil // dirtied mid-flush; retry on a later pass
		}
		if err := b.writeSegment(r.name, buf.Bytes()); err != nil {
			return err
		}
		b.mu.Lock()
		e.hasSegment = true
		e.cleanVersion = v0
		e.segBytes = int64(buf.Len())
		b.segmentWrites++
		b.segmentBytes += int64(buf.Len())
		b.mu.Unlock()
	}
	r.mu.Lock()
	if r.version != v0 || r.paged.Load() {
		r.mu.Unlock()
		return nil
	}
	r.dropContentsLocked()
	r.paged.Store(true)
	r.mu.Unlock()
	b.mu.Lock()
	b.evictions++
	b.mu.Unlock()
	return nil
}

// ExportSnapshot implements Backend. The envelope and per-relation bytes are
// exactly ExportDatabaseBinary's; paged-out relations stream from their
// segments (whose payload is the ExportBinary encoding) instead of faulting
// in, so a snapshot of a mostly-cold database never materializes more than
// one relation at a time.
func (b *DiskBackend) ExportSnapshot(names []string, w io.Writer) error {
	return exportDatabase(b.d, names, w, b.exportRelation)
}

// exportRelation copies a paged-out relation's segment payload to w, holding
// the relation's read lock so a concurrent fault-in + mutation cannot make
// the segment stale mid-copy; a resident relation is encoded afresh.
func (b *DiskBackend) exportRelation(r *Relation, w io.Writer) error {
	r.mu.RLock()
	if !r.paged.Load() {
		r.mu.RUnlock()
		return ExportBinary(r, w)
	}
	defer r.mu.RUnlock()
	payload, err := b.readSegment(r.name)
	if err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ImportSnapshot implements Backend: relations are decoded one at a time and
// the budget is enforced between them, so importing a database larger than
// memory peaks near budget + one relation.
func (b *DiskBackend) ImportSnapshot(rd io.Reader) ([]string, error) {
	return importDatabase(b.d, rd, b.Maintain)
}

// Stats implements Backend. Residency bytes are the estimate of the last
// rebalance pass.
func (b *DiskBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BackendStats{
		Backend:       b.Name(),
		Relations:     len(b.entries),
		ResidentBytes: b.residentBytes,
		BudgetBytes:   b.budget,
		Faults:        b.faults,
		Evictions:     b.evictions,
		SegmentWrites: b.segmentWrites,
		SegmentBytes:  b.segmentBytes,
	}
	for _, e := range b.entries {
		if !e.rel.paged.Load() {
			s.ResidentRelations++
		}
	}
	return s
}

// Close implements Backend. Segments are a cache owned by the directory's
// creator; nothing to flush (the WAL owns durability).
func (b *DiskBackend) Close() error { return nil }

// segPath maps a relation name to its segment file. Names are hex-encoded so
// arbitrary relation names stay path-safe.
func (b *DiskBackend) segPath(name string) string {
	return filepath.Join(b.dir, hex.EncodeToString([]byte(name))+segSuffix)
}

// writeSegment persists one relation payload (its ExportBinary bytes) with a
// magic header and CRC trailer, via tmp + rename so readers never observe a
// torn segment.
func (b *DiskBackend) writeSegment(name string, payload []byte) error {
	buf := make([]byte, 0, len(segMagic)+len(payload)+4)
	buf = append(buf, segMagic...)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, segCRCTable))
	final := b.segPath(name)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("relstore: disk backend: writing segment for %q: %w", name, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("relstore: disk backend: publishing segment for %q: %w", name, err)
	}
	return nil
}

// readSegment loads and verifies one relation's segment, returning the
// ExportBinary payload.
func (b *DiskBackend) readSegment(name string) ([]byte, error) {
	data, err := os.ReadFile(b.segPath(name))
	if err != nil {
		return nil, err
	}
	if len(data) < len(segMagic)+4 || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("relstore: disk backend: segment for %q: bad header", name)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, segCRCTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("relstore: disk backend: segment for %q: checksum mismatch", name)
	}
	return body[len(segMagic):], nil
}
