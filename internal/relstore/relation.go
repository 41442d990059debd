package relstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// index is a hash index over one or more columns, bucketing the stored
// tuples by the combined hash of the indexed column values; lookups re-verify
// equality to tolerate hash collisions. Buckets reference the stored tuples
// directly, so a probe yields tuples with no intermediate key lookup or
// string materialisation, and the first tuple of each bucket is stored
// inline (first/overflow split) so indexing a tuple under a fresh hash —
// the overwhelmingly common case — allocates no bucket slice.
type index struct {
	cols     []int // column positions, sorted ascending
	first    map[uint64]Tuple
	overflow map[uint64][]Tuple
}

// newIndex allocates an index sized for the expected number of tuples, so
// building over an existing relation (the common case: auto-indexing fires
// once a join shape recurs) pays no incremental map growth — the planner-side
// half of hash-join build-side pre-sizing.
func newIndex(cols []int, sizeHint int) *index {
	return &index{cols: cols, first: make(map[uint64]Tuple, sizeHint), overflow: make(map[uint64][]Tuple)}
}

// probe calls fn for every tuple in the bucket of hash h, in insertion order
// modulo deletions, until fn returns false.
func (ix *index) probe(h uint64, fn func(Tuple) bool) {
	ft, ok := ix.first[h]
	if !ok {
		return
	}
	if !fn(ft) {
		return
	}
	for _, t := range ix.overflow[h] {
		if !fn(t) {
			return
		}
	}
}

// HashValues combines the hashes of the values in order; a single value
// hashes to its own hash so one-column composite indexes match the historic
// per-column index layout. The combination is the same one composite indexes
// and Tuple.HashAt use, so callers building their own hash tables over bound
// column values (e.g. the CyLog engine's delta-frontier hash) probe with keys
// compatible with tuple-side hashing.
func HashValues(vals ...Value) uint64 {
	if len(vals) == 1 {
		return vals[0].Hash()
	}
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = fnvUint64(h, v.Hash())
	}
	return h
}

// storedEqual is the set-semantics equality of the tuple store: Value.Equal
// plus NaN == NaN. The former canonical-key layout rendered every NaN as the
// same string, so NaN facts deduplicated; folding NaNs here preserves that —
// without it a rule deriving a NaN fact would re-insert it every fixpoint
// iteration and evaluation would never converge. The probes (ScanEqAt,
// ContainsAt) keep plain Equal semantics: a NaN probe matches nothing.
func storedEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !EqualValues(&a[i], &b[i]) && !(a[i].isNaN() && b[i].isNaN()) {
			return false
		}
	}
	return true
}

func (ix *index) insert(t Tuple) {
	h := t.HashAt(ix.cols...)
	if _, ok := ix.first[h]; !ok {
		ix.first[h] = t
		return
	}
	ix.overflow[h] = append(ix.overflow[h], t)
}

func (ix *index) remove(t Tuple) {
	h := t.HashAt(ix.cols...)
	ft, ok := ix.first[h]
	bucket := ix.overflow[h]
	if ok && storedEqual(ft, t) {
		if len(bucket) > 0 {
			ix.first[h] = bucket[0]
			ix.setOverflow(h, bucket[1:])
		} else {
			delete(ix.first, h)
		}
		return
	}
	for i, bt := range bucket {
		if storedEqual(bt, t) {
			ix.setOverflow(h, append(bucket[:i], bucket[i+1:]...))
			return
		}
	}
}

func (ix *index) setOverflow(h uint64, bucket []Tuple) {
	if len(bucket) == 0 {
		delete(ix.overflow, h)
		return
	}
	ix.overflow[h] = bucket
}

// stored is one resident tuple plus its support record: whether the tuple
// was asserted as a base fact (loaded data, external input, a crowd answer —
// never removed by derivation maintenance) and how many rule derivations
// currently support it (counted inserts through InsertDerived, decremented by
// DecDerived, reset by ClearDerived). The struct is held by value in the
// bucket maps, so support maintenance costs no allocation on the insert path.
type stored struct {
	t       Tuple
	derived int32
	base    bool
}

// Relation is a named, schema-typed set of tuples with optional hash indexes
// on column positions, single or combined. All operations are safe for
// concurrent use.
//
// Relations have set semantics: inserting a tuple equal to an existing one is
// a no-op and Insert reports false. Alongside set membership every tuple
// carries a support record (see stored): Insert asserts base support,
// InsertDerived counts derivation support, and the deletion-propagation APIs
// (DecDerived, ClearDerived) remove tuples whose last support vanished — the
// storage half of the CyLog engine's retraction machinery.
//
// Read-only view guarantee: as long as no Insert, InsertDerived, DecDerived,
// Clear or ClearDerived runs, the tuple set observed by readers is stable —
// any number of goroutines may Scan, ScanSupport, ScanEqAt, ContainsAt,
// Support, All and Len concurrently and all see the same contents.
// EnsureIndexAt is read-compatible: it changes only access paths, never
// contents, so it may race freely with readers (and with itself) without
// perturbing results. The CyLog engine's parallel evaluation
// phase relies on exactly this contract: workers share the live relations as
// a logical snapshot and defer every tuple mutation to a single-threaded
// merge step.
type Relation struct {
	name   string
	schema *Schema

	mu sync.RWMutex
	// rows buckets the stored tuples by Tuple.Hash; equality is re-verified
	// on insert and lookup, so hash collisions only cost a short linear walk.
	// Bucketing by hash instead of a canonical string key keeps Insert free
	// of per-tuple string materialisation — the dominant allocation of the
	// seed layout on the CyLog merge path — and the first tuple of each
	// bucket lives inline in rows (collisions spill to overflow), so the
	// common insert allocates nothing beyond amortised map growth. Entries
	// carry their support record by value (stored), so base/derived
	// accounting rides the same buckets at zero extra allocation.
	rows     map[uint64]stored
	overflow map[uint64][]stored
	count    int
	// tupleBytes is the tuple part of approxBytes: estimateTupleBytes summed
	// over the stored tuples, kept current by every path that stores or
	// drops one, so sizing a relation never walks it.
	tupleBytes int64
	indexes    []*index // found by column positions (lookup)
	version    uint64

	// pager, when non-nil, is the paging backend hook installed at creation
	// by a Backend that can move this relation's contents between memory and
	// secondary storage (see backend.go). Every content-touching public
	// method takes its lock through lockResident or rlockResident, so a
	// paged-out relation faults back in transparently before any read or
	// write. The field is written once at construction and never mutated, so
	// the hot-path check is a single nil comparison — relations of the
	// MemoryBackend (pager == nil) behave byte-for-byte like the pre-seam
	// storage.
	pager relationPager
	// paged reports that the contents (tuple buckets and index contents) have
	// been dropped and live only in the backend's segment file. Flipped only
	// by the pager while holding mu; read lock-free on the fast path.
	paged atomic.Bool
	// lastTouch is the backend's logical clock value at the most recent
	// access — the recent-touch accounting behind hot-relation pinning.
	lastTouch atomic.Uint64
}

// page gives the paging backend its pre-access hook: it records the touch
// and faults the contents back in when they are paged out. Relations without
// a pager (the memory backend, engine-internal scratch relations) pay one
// nil check.
func (r *Relation) page() {
	if r.pager != nil {
		r.pager.ensure(r)
	}
}

// lockResident takes the write lock over resident contents. An eviction
// (Maintain, or a rebalance after another relation faults in) can take the
// lock between page() and this caller and drop the contents again; a write
// into the dropped contents would then be replaced by the older segment at
// the next fault-in. So the paged flag is re-checked under the lock, and a
// relation found paged out is unlocked, faulted in and locked again.
func (r *Relation) lockResident() {
	for {
		r.page()
		r.mu.Lock()
		if !r.paged.Load() {
			return
		}
		r.mu.Unlock()
	}
}

// rlockResident is lockResident for the read lock.
func (r *Relation) rlockResident() {
	for {
		r.page()
		r.mu.RLock()
		if !r.paged.Load() {
			return
		}
		r.mu.RUnlock()
	}
}

// dropContentsLocked empties the tuple buckets and index contents, keeping
// the index *definitions* and the version — everything a paged-out relation
// must still answer without its contents. Clear and a page-out share it.
// Caller holds the write lock and, when paging out, is responsible for having
// persisted the contents first.
func (r *Relation) dropContentsLocked() {
	r.rows = make(map[uint64]stored)
	r.overflow = make(map[uint64][]stored)
	r.count = 0
	r.tupleBytes = 0
	for _, ix := range r.indexes {
		ix.first = make(map[uint64]Tuple)
		ix.overflow = make(map[uint64][]Tuple)
	}
}

// adoptContentsLocked replaces the relation's contents with those of src — a
// freshly decoded twin with identical name, schema and tuple set — and
// rebuilds this relation's indexes over them. The version is left
// untouched: a fault-in restores exactly the state that was paged out, so
// nothing observable moves. Caller holds the write lock.
func (r *Relation) adoptContentsLocked(src *Relation) {
	r.rows = src.rows
	r.overflow = src.overflow
	r.count = src.count
	r.tupleBytes = src.tupleBytes
	for _, ix := range r.indexes {
		ix.first = make(map[uint64]Tuple, r.count)
		ix.overflow = make(map[uint64][]Tuple)
	}
	if len(r.indexes) > 0 {
		r.forEachLocked(func(t Tuple) bool {
			for _, ix := range r.indexes {
				ix.insert(t)
			}
			return true
		})
	}
}

// approxBytes estimates the relation's resident heap footprint for the
// backend's byte budget: the running tuple estimate (tupleBytes) plus
// per-index entries, in O(1). It deliberately bypasses page() — the backend
// sizes resident relations without touching their recency accounting.
func (r *Relation) approxBytes() int64 {
	const indexOverhead = 40 // tuple header in an index bucket
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tupleBytes + int64(r.count*len(r.indexes))*indexOverhead
}

// estimateTupleBytes estimates one stored tuple's heap share: its bucket
// entry plus, per value, the Value struct and a string payload.
func estimateTupleBytes(t Tuple) int64 {
	const entryOverhead = 48 // stored struct + map bucket share
	const valueOverhead = 24 // Value struct share
	b := int64(entryOverhead)
	for i := range t {
		b += valueOverhead + int64(len(t[i].s))
	}
	return b
}

// forEachLocked calls fn for every stored tuple until fn returns false.
// Callers must hold at least the read lock.
func (r *Relation) forEachLocked(fn func(Tuple) bool) {
	for h, s := range r.rows {
		if !fn(s.t) {
			return
		}
		for _, os := range r.overflow[h] {
			if !fn(os.t) {
				return
			}
		}
	}
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{
		name:     name,
		schema:   schema,
		rows:     make(map[uint64]stored),
		overflow: make(map[uint64][]stored),
	}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples (the relation's cardinality; query
// planners use it as the base selectivity estimate).
func (r *Relation) Len() int {
	r.rlockResident()
	defer r.mu.RUnlock()
	return r.count
}

// Version returns a counter incremented on every successful mutation. It lets
// callers (e.g. the CyLog engine) detect changes cheaply.
func (r *Relation) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// checkPositions validates that positions are strictly ascending and within
// the schema arity — the contract of the position-based index and probe APIs.
func (r *Relation) checkPositions(positions []int) error {
	if len(positions) == 0 {
		return fmt.Errorf("relstore: relation %q needs at least one column position", r.name)
	}
	arity := r.schema.Arity()
	for i, p := range positions {
		if p < 0 || p >= arity {
			return fmt.Errorf("relstore: position %d out of range for relation %q", p, r.name)
		}
		if i > 0 && p <= positions[i-1] {
			return fmt.Errorf("relstore: positions must be strictly ascending, got %v", positions)
		}
	}
	return nil
}

// HasIndexAt reports whether an index exists on exactly the given column
// positions (strictly ascending). It allocates nothing.
func (r *Relation) HasIndexAt(positions []int) bool {
	if r.checkPositions(positions) != nil {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lookup(positions) != nil
}

// EnsureIndexAt creates a hash index on the given column positions (strictly
// ascending) unless one already exists. The CyLog planner calls it when a
// recurring bound join key deserves an index. Indexes are maintained by every
// mutation, and their definitions survive Clear, ClearDerived and paging.
func (r *Relation) EnsureIndexAt(positions []int) error {
	if err := r.checkPositions(positions); err != nil {
		return err
	}
	r.lockResident()
	defer r.mu.Unlock()
	if r.lookup(positions) != nil {
		return nil
	}
	ix := newIndex(append([]int(nil), positions...), r.count)
	r.forEachLocked(func(t Tuple) bool {
		ix.insert(t)
		return true
	})
	r.indexes = append(r.indexes, ix)
	return nil
}

// Insert adds the tuple (coerced to the schema types) with base support. It
// returns true when the tuple was new, false when an equal tuple was already
// present (in which case the existing tuple gains base support), and an error
// when the tuple does not fit the schema. Base-supported tuples are never
// removed by DecDerived or ClearDerived — only Clear can.
func (r *Relation) Insert(t Tuple) (bool, error) {
	return r.insertWithSupport(t, true, 0)
}

// InsertDerived adds the tuple with one unit of derivation support: a new
// tuple is stored with derived count 1, an existing one has its count
// incremented. It returns true when the tuple was physically new. The CyLog
// engine's merge step calls it for every derivation a round gains, so the
// count is the number of distinct derivations of the tuple.
func (r *Relation) InsertDerived(t Tuple) (bool, error) {
	return r.insertWithSupport(t, false, 1)
}

// insertWithSupport adds base support (when base is set) and `derived` units
// of derivation count to the tuple equal to t, storing it when absent. It is
// the one insert path: Insert and InsertDerived call it, and the binary
// importer restores a tuple's whole support record in one call instead of a
// loop whose bound would come from untrusted stream bytes.
func (r *Relation) insertWithSupport(t Tuple, base bool, derived int32) (bool, error) {
	ct, err := r.schema.Coerce(t)
	if err != nil {
		return false, err
	}
	h := ct.Hash()
	r.lockResident()
	defer r.mu.Unlock()
	bump := func(s *stored) {
		s.base = s.base || base
		s.derived += derived
	}
	if fs, ok := r.rows[h]; ok {
		if storedEqual(fs.t, ct) {
			bump(&fs)
			r.rows[h] = fs
			return false, nil
		}
		bucket := r.overflow[h]
		for i := range bucket {
			if storedEqual(bucket[i].t, ct) {
				bump(&bucket[i])
				return false, nil
			}
		}
		r.overflow[h] = append(bucket, stored{t: ct, base: base, derived: derived})
	} else {
		r.rows[h] = stored{t: ct, base: base, derived: derived}
	}
	r.count++
	r.tupleBytes += estimateTupleBytes(ct)
	for _, ix := range r.indexes {
		ix.insert(ct)
	}
	r.version++
	return true, nil
}

// DecDerived removes one unit of derivation support from the tuple equal to
// t: the CyLog engine calls it for every derivation a round invalidates. A
// tuple whose derivation support reaches zero and that carries no base
// support is removed from the relation (and its indexes); it returns true
// exactly in that case. Decrementing a tuple that is absent, or whose
// derivation count is already zero, fails with ErrSupportUnderflow and
// changes nothing: the engine keeps counts exact, so either case means they
// are wrong.
func (r *Relation) DecDerived(t Tuple) (bool, error) {
	ct, err := r.schema.Coerce(t)
	if err != nil {
		return false, err
	}
	r.lockResident()
	defer r.mu.Unlock()
	underflow := false
	found, removed := r.removeLocked(ct, func(s *stored) bool {
		if s.derived <= 0 {
			underflow = true
			return false
		}
		s.derived--
		return s.derived == 0 && !s.base
	})
	if !found || underflow {
		return false, fmt.Errorf("%w: %s%s has no derivation to remove", ErrSupportUnderflow, r.name, ct)
	}
	return removed, nil
}

// ErrSupportUnderflow reports a DecDerived of a tuple that is absent or has
// no derivation support left.
var ErrSupportUnderflow = errors.New("relstore: derivation support underflow")

// removeLocked locates the stored entry equal to ct, applies decide to it and
// removes it when decide returns true; a false verdict keeps the (mutated)
// entry in place. It reports whether an entry was found and whether it was
// removed. Caller holds the write lock.
func (r *Relation) removeLocked(ct Tuple, decide func(*stored) bool) (found, removed bool) {
	h := ct.Hash()
	fs, ok := r.rows[h]
	if !ok {
		return false, false
	}
	var victim Tuple
	bucket := r.overflow[h]
	if storedEqual(fs.t, ct) {
		if !decide(&fs) {
			r.rows[h] = fs
			return true, false
		}
		victim = fs.t
		if len(bucket) > 0 {
			r.rows[h] = bucket[0]
			r.setOverflow(h, bucket[1:])
		} else {
			delete(r.rows, h)
		}
	} else {
		found := -1
		for i := range bucket {
			if storedEqual(bucket[i].t, ct) {
				found = i
				break
			}
		}
		if found < 0 {
			return false, false
		}
		if !decide(&bucket[found]) {
			return true, false
		}
		victim = bucket[found].t
		r.setOverflow(h, append(bucket[:found], bucket[found+1:]...))
	}
	r.count--
	r.tupleBytes -= estimateTupleBytes(victim)
	for _, ix := range r.indexes {
		ix.remove(victim)
	}
	r.version++
	return true, true
}

// ClearDerived removes every tuple with no base support and resets the
// derivation counts of the survivors to zero, returning the number removed.
// It is the over-deletion primitive of the CyLog engine's recompute of a
// recursive stratum: the stratum clears its head relations down to their base
// facts and re-derives the survivors with fresh counts. Indexes are rebuilt
// over the survivors.
func (r *Relation) ClearDerived() int {
	r.lockResident()
	defer r.mu.Unlock()
	removed := 0
	var removedBytes int64
	rows := make(map[uint64]stored, len(r.rows))
	overflow := make(map[uint64][]stored)
	// sift keeps a base-supported entry with its count reset and counts
	// any other as removed.
	sift := func(h uint64, s stored) {
		if !s.base {
			removed++
			removedBytes += estimateTupleBytes(s.t)
			return
		}
		s.derived = 0
		if _, ok := rows[h]; !ok {
			rows[h] = s
			return
		}
		overflow[h] = append(overflow[h], s)
	}
	for h, s := range r.rows {
		sift(h, s)
		for _, os := range r.overflow[h] {
			sift(h, os)
		}
	}
	if removed == 0 {
		// Nothing left the relation; only counts were reset, which no reader
		// can observe — keep the original buckets and version.
		for h, s := range rows {
			r.rows[h] = s
		}
		for h, b := range overflow {
			r.overflow[h] = b
		}
		return 0
	}
	r.rows = rows
	r.overflow = overflow
	r.count -= removed
	r.tupleBytes -= removedBytes
	for _, ix := range r.indexes {
		ix.first = make(map[uint64]Tuple)
		ix.overflow = make(map[uint64][]Tuple)
	}
	r.forEachLocked(func(t Tuple) bool {
		for _, ix := range r.indexes {
			ix.insert(t)
		}
		return true
	})
	r.version++
	return removed
}

// ScanSupport calls fn for every stored tuple together with its support
// record until fn returns false. Iteration order is unspecified; fn must not
// call back into the relation's mutating methods. It is the bulk accessor the
// CyLog engine's retraction snapshots use — one pass instead of a per-tuple
// Support probe.
func (r *Relation) ScanSupport(fn func(t Tuple, base bool, derived int) bool) {
	r.rlockResident()
	defer r.mu.RUnlock()
	for h, s := range r.rows {
		if !fn(s.t, s.base, int(s.derived)) {
			return
		}
		for _, os := range r.overflow[h] {
			if !fn(os.t, os.base, int(os.derived)) {
				return
			}
		}
	}
}

// Support reports the support record of the tuple equal to t: whether it
// carries base support, its current derivation count, and whether it is
// stored at all.
func (r *Relation) Support(t Tuple) (base bool, derived int, ok bool) {
	ct, err := r.schema.Coerce(t)
	if err != nil {
		return false, 0, false
	}
	r.rlockResident()
	defer r.mu.RUnlock()
	h := ct.Hash()
	if fs, found := r.rows[h]; found {
		if storedEqual(fs.t, ct) {
			return fs.base, int(fs.derived), true
		}
		for _, os := range r.overflow[h] {
			if storedEqual(os.t, ct) {
				return os.base, int(os.derived), true
			}
		}
	}
	return false, 0, false
}

func (r *Relation) setOverflow(h uint64, bucket []stored) {
	if len(bucket) == 0 {
		delete(r.overflow, h)
		return
	}
	r.overflow[h] = bucket
}

// All returns every tuple in deterministic (sorted) order.
func (r *Relation) All() []Tuple {
	r.rlockResident()
	out := make([]Tuple, 0, r.count)
	r.forEachLocked(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Scan calls fn for every tuple until fn returns false. Iteration order is
// unspecified; fn must not call back into the relation's mutating methods.
func (r *Relation) Scan(fn func(Tuple) bool) {
	r.rlockResident()
	defer r.mu.RUnlock()
	r.forEachLocked(fn)
}

// lookup finds the index covering exactly the given column positions.
// Callers must hold at least the read lock and pass sorted positions. A
// relation carries at most a handful of indexes, so a linear walk comparing
// positions is the whole lookup, and it allocates nothing.
func (r *Relation) lookup(cols []int) *index {
	for _, ix := range r.indexes {
		if positionsEqual(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

func positionsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ScanEqAt calls fn for every tuple whose values at the given positions equal
// the corresponding vals, until fn returns false. Positions must be strictly
// ascending and in schema range. It probes an index covering exactly those
// positions when one exists and scans otherwise, and reports whether an index
// was used. It is the allocation-light primitive the CyLog join loop issues
// once per binding. Iteration order is unspecified; fn must not call back
// into the relation's mutating methods.
func (r *Relation) ScanEqAt(positions []int, vals []Value, fn func(Tuple) bool) (bool, error) {
	if len(positions) != len(vals) {
		return false, fmt.Errorf("relstore: ScanEqAt on %q got %d positions and %d values", r.name, len(positions), len(vals))
	}
	if err := r.checkPositions(positions); err != nil {
		return false, err
	}
	matches := func(t Tuple) bool {
		for i, p := range positions {
			if !t[p].Equal(vals[i]) {
				return false
			}
		}
		return true
	}

	r.rlockResident()
	defer r.mu.RUnlock()
	if ix := r.lookup(positions); ix != nil {
		ix.probe(HashValues(vals...), func(t Tuple) bool {
			return !matches(t) || fn(t)
		})
		return true, nil
	}
	r.forEachLocked(func(t Tuple) bool {
		return !matches(t) || fn(t)
	})
	return false, nil
}

// ContainsAt reports whether any tuple's values at the given positions
// (strictly ascending) equal the corresponding vals. It is the existence
// probe of ScanEqAt: the CyLog engine checks with it whether an open relation
// already has a fact for a request key, without re-boxing values into a
// tuple. An index covering exactly those positions answers in O(1);
// otherwise the scan stops at the first match.
func (r *Relation) ContainsAt(positions []int, vals []Value) (bool, error) {
	found := false
	_, err := r.ScanEqAt(positions, vals, func(Tuple) bool {
		found = true
		return false
	})
	return found, err
}

// Clear removes all tuples. Indexes remain defined but empty.
func (r *Relation) Clear() {
	r.lockResident()
	defer r.mu.Unlock()
	if r.count == 0 {
		return
	}
	r.dropContentsLocked()
	r.version++
}

// String summarises the relation.
func (r *Relation) String() string {
	return fmt.Sprintf("%s%s [%d tuples]", r.name, r.schema, r.Len())
}
