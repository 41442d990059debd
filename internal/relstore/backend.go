package relstore

import "io"

// Backend is the storage seam of a Database: it decides where relation
// contents live and how database-level snapshots move in and out. The seam
// governs relation creation, paging and snapshot I/O only. A relation lives
// as long as its database, so there is no release hook. Relation stays a
// concrete struct and its insert/probe methods never dispatch through an
// interface, so the hot join path pays nothing for pluggability (the memory
// backend's relations carry a nil pager).
//
// Backends are single-database: NewDatabaseWith attaches the backend exactly
// once and attach panics on reuse. The two implementations are
// NewMemoryBackend and NewDiskBackend; the platform picks one per project.
type Backend interface {
	// Name identifies the backend ("memory", "disk") in stats and logs.
	Name() string

	// attach binds the backend to the database it stores. Called exactly
	// once by NewDatabaseWith; package-private so the seam stays closed to
	// out-of-package implementations (the invariants below lean on
	// package internals).
	attach(d *Database)

	// OpenRelation returns the relation to register under name. Paging
	// backends install their pager hook here; the returned relation must be
	// empty.
	OpenRelation(name string, schema *Schema) (*Relation, error)

	// MarkVolatile exempts the named relation from paging — derived (IDB)
	// relations are recomputed, not persisted, and the engine's evaluator
	// holds direct pointers into them. Must be called before the relation is
	// created to take effect.
	MarkVolatile(name string)

	// ExportSnapshot writes the named relations (all when nil) as a
	// database-level binary export — the RSB1 envelope of
	// ExportDatabaseBinary, byte-identical across backends for equal
	// contents. A paging backend streams paged-out relations from their
	// segments instead of faulting them in.
	ExportSnapshot(names []string, w io.Writer) error

	// ImportSnapshot reads a database-level binary export (RSB1, or a legacy
	// RSB2) into the database, returning the imported relation names. A
	// paging backend may spill relations as they arrive so the peak
	// footprint stays near its budget.
	ImportSnapshot(rd io.Reader) ([]string, error)

	// Maintain enforces the backend's resource policy (e.g. evicting cold
	// relations past the byte budget). Callers invoke it at quiescent points
	// — after a commit, after an import. A no-op for the memory backend.
	Maintain() error

	// Stats reports residency and I/O counters for observability and tests.
	Stats() BackendStats

	// Close releases backend resources. The database must not be used after.
	Close() error
}

// BackendStats is a point-in-time observability snapshot of a backend.
type BackendStats struct {
	// Backend is the backend name ("memory", "disk").
	Backend string
	// Relations is the number of relations the backend manages (for the
	// disk backend: non-volatile relations with residency accounting).
	Relations int
	// ResidentRelations counts managed relations currently in memory.
	ResidentRelations int
	// ResidentBytes is the estimated heap footprint of resident managed
	// relations. Zero for the memory backend (nothing is accounted).
	ResidentBytes int64
	// BudgetBytes is the configured residency budget (0 = unbounded).
	BudgetBytes int64
	// Faults counts paged-out relations loaded back from their segments.
	Faults int64
	// Evictions counts relations dropped back to their segments.
	Evictions int64
	// SegmentWrites counts segment files written (evictions of dirty
	// relations and import-side spills).
	SegmentWrites int64
	// SegmentBytes totals the payload bytes of written segments.
	SegmentBytes int64
}

// relationPager is the hook a paging backend installs on the relations it
// manages. ensure runs before every content access: it records the touch for
// recency accounting and faults the contents in when they are paged out.
type relationPager interface {
	ensure(r *Relation)
}

// MemoryBackend is the classic hash-bucketed in-memory store, extracted
// behind the Backend seam. Relations live entirely on the heap for the
// database's lifetime; snapshots go through the binary codec directly.
type MemoryBackend struct {
	d *Database
}

// NewMemoryBackend returns a fresh in-memory backend for NewDatabaseWith.
func NewMemoryBackend() *MemoryBackend { return &MemoryBackend{} }

// Name implements Backend.
func (b *MemoryBackend) Name() string { return "memory" }

func (b *MemoryBackend) attach(d *Database) {
	if b.d != nil {
		panic("relstore: backend already attached to a database")
	}
	b.d = d
}

// OpenRelation implements Backend: a plain heap relation, no pager.
func (b *MemoryBackend) OpenRelation(name string, schema *Schema) (*Relation, error) {
	return NewRelation(name, schema), nil
}

// MarkVolatile implements Backend (nothing pages, so nothing to exempt).
func (b *MemoryBackend) MarkVolatile(string) {}

// ExportSnapshot implements Backend via the database export.
func (b *MemoryBackend) ExportSnapshot(names []string, w io.Writer) error {
	return ExportDatabaseBinary(b.d, names, w)
}

// ImportSnapshot implements Backend via the database import.
func (b *MemoryBackend) ImportSnapshot(rd io.Reader) ([]string, error) {
	return ImportDatabaseBinary(b.d, rd)
}

// Maintain implements Backend as a no-op.
func (b *MemoryBackend) Maintain() error { return nil }

// Stats implements Backend. Every relation is resident by definition; byte
// accounting is not maintained (nothing consumes it).
func (b *MemoryBackend) Stats() BackendStats {
	n := 0
	if b.d != nil {
		n = len(b.d.Names())
	}
	return BackendStats{Backend: b.Name(), Relations: n, ResidentRelations: n}
}

// Close implements Backend as a no-op.
func (b *MemoryBackend) Close() error { return nil }
