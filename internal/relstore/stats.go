package relstore

// Per-column statistics
//
// Every relation maintains, alongside its tuple buckets, one refcount map per
// column keyed by value hash: the map's size is the relation's distinct-count
// estimate for that column (exact up to value-hash collisions, which only
// ever undercount). Together with the row count these are the selectivity
// inputs of the CyLog cost-aware planner: the expected matches of an equality
// probe on a column set is |R| / Π distinct(col).
//
// Estimates change on every insert and delete, but plans should not: the
// planner caches compiled plans and only replans when the statistics have
// drifted enough to plausibly change join order. That staleness contract is
// the stats epoch — a monotonic counter advanced when the row count or any
// column's distinct estimate moves past the drift threshold relative to the
// values captured at the previous advance (the markers). Readers poll the
// epoch lock-free; equal epochs guarantee the stats a cached plan was built
// from are within the drift bound of the current ones.
//
// Maintenance is O(arity) map operations per physical tuple add/remove,
// unconditional: statistics are storage-level truth, whether or not a planner
// consumes them.

// statsDriftSlack is the additive slack of the drift rule: small relations
// may drift by up to ~slack/2 rows without bumping, so the epoch is quiet
// while a relation trickles from empty to a handful of tuples.
const statsDriftSlack = 16

// statsDrifted reports whether cur has moved far enough from the marker value
// captured at the last epoch bump: the drift must exceed half the marker plus
// half the slack (roughly a 50% relative change). Growth from a marker of 0
// first bumps at 9; from 100 at 159 (or 41 shrinking) — logarithmically many
// bumps over any growth, so steady-state incremental rounds that add a few
// tuples to large relations leave the epoch (and cached plans) alone.
func statsDrifted(mark, cur int) bool {
	d := cur - mark
	if d < 0 {
		d = -d
	}
	return 2*d > mark+statsDriftSlack
}

// initStatsLocked allocates the per-column refcount maps and markers.
func (r *Relation) initStatsLocked() {
	arity := r.schema.Arity()
	r.colCounts = make([]map[uint64]int32, arity)
	for i := range r.colCounts {
		r.colCounts[i] = make(map[uint64]int32)
	}
	r.markDistinct = make([]int, arity)
}

// statsInsertLocked records one physically added tuple. Caller holds the
// write lock and must call it only when the tuple entered the store (support
// bumps on existing tuples leave the statistics untouched).
func (r *Relation) statsInsertLocked(t Tuple) {
	for i := range t {
		r.colCounts[i][t[i].Hash()]++
	}
	r.statsMaybeBumpLocked()
}

// statsRemoveLocked records one physically removed tuple.
func (r *Relation) statsRemoveLocked(t Tuple) {
	for i := range t {
		h := t[i].Hash()
		if c := r.colCounts[i][h]; c <= 1 {
			delete(r.colCounts[i], h)
		} else {
			r.colCounts[i][h] = c - 1
		}
	}
	r.statsMaybeBumpLocked()
}

// statsRebuildLocked recomputes the refcount maps from the stored tuples —
// the bulk path of ClearDerived, which swaps the buckets wholesale.
func (r *Relation) statsRebuildLocked() {
	for i := range r.colCounts {
		r.colCounts[i] = make(map[uint64]int32)
	}
	r.forEachLocked(func(t Tuple) bool {
		for i := range t {
			r.colCounts[i][t[i].Hash()]++
		}
		return true
	})
	r.statsMaybeBumpLocked()
}

// statsMaybeBumpLocked advances the epoch when the row count or any column's
// distinct estimate has drifted past the threshold since the last bump,
// capturing the current values as the new markers.
func (r *Relation) statsMaybeBumpLocked() {
	drifted := statsDrifted(r.markRows, r.count)
	if !drifted {
		for i, m := range r.colCounts {
			if statsDrifted(r.markDistinct[i], len(m)) {
				drifted = true
				break
			}
		}
	}
	if !drifted {
		return
	}
	r.markRows = r.count
	for i, m := range r.colCounts {
		r.markDistinct[i] = len(m)
	}
	r.statsEpoch.Add(1)
}

// StatsEpoch returns the relation's statistics epoch: a monotonic counter
// advanced whenever the row count or a column's distinct-count estimate
// drifts past the threshold (see statsDrifted). Plan caches key on it — an
// unchanged epoch means the statistics a plan was built from are still
// within the drift bound. The read is lock-free, so evaluation-side planners
// may poll it from any goroutine.
func (r *Relation) StatsEpoch() uint64 {
	return r.statsEpoch.Load()
}

// ColumnDistinct returns the estimated number of distinct values stored in
// the column at the given position (0 for out-of-range positions). The
// estimate counts distinct value hashes, so collisions undercount slightly —
// acceptable for selectivity estimation, which only needs the right order of
// magnitude.
func (r *Relation) ColumnDistinct(col int) int {
	r.rlockResident()
	defer r.mu.RUnlock()
	if col < 0 || col >= len(r.colCounts) {
		return 0
	}
	return len(r.colCounts[col])
}

// statsMarkers returns the epoch and the marker values it was last advanced
// at, for the binary codec: exports carry them so a restored relation resumes
// drift tracking exactly where the exported one stood.
func (r *Relation) statsMarkers() (epoch uint64, rows int, distinct []int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.statsEpoch.Load(), r.markRows, append([]int(nil), r.markDistinct...)
}

// restoreStatsMarkers reinstates exported drift markers after an import. The
// epoch never moves backwards: inserting the imported tuples may already have
// advanced it past the exported value, in which case it advances once more
// instead — cached plans keyed on any earlier epoch stay invalidated.
func (r *Relation) restoreStatsMarkers(epoch uint64, rows int, distinct []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.markRows = rows
	for i := range r.markDistinct {
		if i < len(distinct) {
			r.markDistinct[i] = distinct[i]
		}
	}
	if cur := r.statsEpoch.Load(); epoch <= cur {
		epoch = cur + 1
	}
	r.statsEpoch.Store(epoch)
}
