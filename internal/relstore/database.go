package relstore

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Database is a named collection of relations. It is the unit the CyLog engine
// and the Crowd4U platform operate on. All methods are safe for concurrent
// use; individual relations carry their own finer-grained locks.
//
// Every database owns exactly one storage Backend (see backend.go) that
// decides where relation contents live. NewDatabase wires the classic
// in-memory store; NewDatabaseWith picks another (e.g. the disk-paged one).
type Database struct {
	mu        sync.RWMutex
	relations map[string]*Relation
	backend   Backend
}

// NewDatabase creates an empty database over the in-memory backend — the
// historical behavior, byte-for-byte.
func NewDatabase() *Database {
	return NewDatabaseWith(NewMemoryBackend())
}

// NewDatabaseWith creates an empty database whose relations are stored by the
// given backend. The backend must be fresh: backends are single-database and
// attach panics on reuse.
func NewDatabaseWith(b Backend) *Database {
	d := &Database{relations: make(map[string]*Relation), backend: b}
	b.attach(d)
	return d
}

// Backend returns the database's storage backend.
func (d *Database) Backend() Backend { return d.backend }

// ExportSnapshot writes the named relations (all relations when names is nil)
// as a database-level binary export (RSB1 envelope) through the backend, which
// may stream paged-out relations straight from their segments instead of
// materializing them. The bytes are identical to ExportDatabaseBinary for
// equal contents regardless of backend.
func (d *Database) ExportSnapshot(names []string, w io.Writer) error {
	return d.backend.ExportSnapshot(names, w)
}

// ImportSnapshot reads a database-level binary export through the backend,
// which may spill relations to secondary storage as they arrive instead of
// keeping the whole set resident. It returns the imported relation names.
func (d *Database) ImportSnapshot(rd io.Reader) ([]string, error) {
	return d.backend.ImportSnapshot(rd)
}

// GetOrCreate returns the named relation, creating it with the given schema
// when absent. It returns an error if the relation exists with a different
// schema.
func (d *Database) GetOrCreate(name string, schema *Schema) (*Relation, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, exists := d.relations[name]; exists {
		if !r.Schema().Equal(schema) {
			return nil, fmt.Errorf("relstore: relation %q exists with schema %s, requested %s", name, r.Schema(), schema)
		}
		return r, nil
	}
	r, err := d.backend.OpenRelation(name, schema)
	if err != nil {
		return nil, err
	}
	d.relations[name] = r
	return r, nil
}

// Relation returns the named relation, or nil when absent.
func (d *Database) Relation(name string) *Relation {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.relations[name]
}

// Names returns the sorted names of all relations.
func (d *Database) Names() []string {
	d.mu.RLock()
	out := make([]string, 0, len(d.relations))
	for name := range d.relations {
		out = append(out, name)
	}
	d.mu.RUnlock()
	sort.Strings(out)
	return out
}
