package cylog

import (
	"fmt"
	"slices"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Columnar binding rows
//
// This file is the engine's join loop: three join strategies (index probe,
// hashed delta frontier, scan), the negation and comparison filters, and
// request generation. Bindings are flat, fixed-width []Value rows addressed by
// the rule's slot schema. The rows of one evaluation step live in a single
// contiguous arena (rowBatch), so extending a binding is an append of W
// values with amortised allocation, and filters compact the arena in place
// without allocating at all.

// rowBatch is a columnar batch of binding rows: len(masks) rows of fixed
// width, stored back to back in one values arena. Row i occupies
// vals[i*width:(i+1)*width]; masks[i] flags its bound slots (bit s == slot
// s). Join steps append extended rows to a fresh output batch
// (copy-on-extend at batch granularity); filter steps compact their input
// batch in place. Rows are never mutated once appended, so emitted row
// slices remain valid for the lifetime of the batch.
type rowBatch struct {
	width int
	vals  []relstore.Value
	masks []uint64
}

// rows returns the number of rows in the batch.
func (b *rowBatch) rows() int { return len(b.masks) }

// row returns the i-th row's slot values (empty for zero-width batches).
func (b *rowBatch) row(i int) []relstore.Value {
	if b.width == 0 {
		return nil
	}
	lo, hi := i*b.width, (i+1)*b.width
	return b.vals[lo:hi:hi]
}

// tryExtend unifies the atom's pre-resolved terms with the tuple under the
// source row and, on success, appends the extended row to the batch. It
// verifies before it copies: constants, already-bound slots
// and repeated fresh variables are checked against the source row and the
// tuple itself, and only a successful match appends — so the per-candidate
// cost of a failing scan join is the comparison, not a row copy, and the
// only allocations are the arena's amortised growth.
func (b *rowBatch) tryExtend(refs []termRef, t relstore.Tuple, src []relstore.Value, mask uint64) bool {
	if len(refs) != len(t) {
		return false
	}
	// Index-based access throughout: termRef embeds a Value constant, so a
	// range copy per term would dominate the scan-join hot loop.
	newMask := mask
	for i := 0; i < len(refs); i++ {
		slot := refs[i].slot
		switch slot {
		case slotAnon:
			// never binds
		case slotConstant:
			if !relstore.EqualValues(&refs[i].konst, &t[i]) {
				return false
			}
		default:
			bit := uint64(1) << uint(slot)
			if mask&bit != 0 {
				if !relstore.EqualValues(&src[slot], &t[i]) {
					return false
				}
				continue
			}
			if newMask&bit != 0 {
				// The variable was freshly bound by an earlier term of this
				// atom; find that occurrence and compare the tuple against
				// itself (the binding is not in src yet).
				for j := 0; j < i; j++ {
					if refs[j].slot == slot {
						if !relstore.EqualValues(&t[j], &t[i]) {
							return false
						}
						break
					}
				}
				continue
			}
			newMask |= bit
		}
	}
	base := len(b.vals)
	b.vals = append(b.vals, src...)
	row := b.vals[base:]
	written := mask
	for i := 0; i < len(refs); i++ {
		if slot := refs[i].slot; slot >= 0 {
			if bit := uint64(1) << uint(slot); written&bit == 0 {
				// The first occurrence binds the slot.
				row[slot] = t[i]
				written |= bit
			}
		}
	}
	b.masks = append(b.masks, newMask)
	return true
}

// keep retains the i-th row of the batch, compacting it towards position n
// (the number of rows kept so far). Callers iterate i over the batch in
// order, call keep for the surviving rows, then truncate.
func (b *rowBatch) keep(n, i int) {
	if n != i {
		copy(b.vals[n*b.width:(n+1)*b.width], b.row(i))
		b.masks[n] = b.masks[i]
	}
}

// reserve grows the batch's capacity to at least n rows.
func (b *rowBatch) reserve(n int) {
	if n > cap(b.masks) {
		b.vals = slices.Grow(b.vals, n*b.width-len(b.vals))
		b.masks = slices.Grow(b.masks, n-len(b.masks))
	}
}

// truncate shrinks the batch to its first n rows.
func (b *rowBatch) truncate(n int) {
	b.vals = b.vals[:n*b.width]
	b.masks = b.masks[:n]
}

// evaluateRule computes the head tuples derivable by the rule under the given
// variant, collecting open-request candidates into sink along the way. The
// body runs in planner order (the rule's cached plan for the variant) with
// index probes on bound join columns, threading row batches through the join
// and filter primitives below. Evaluation only reads the database (plus
// relstore's read-compatible index auto-creation), so any number of
// evaluateRule calls may run concurrently as long as no tuples are mutated.
func (e *Engine) evaluateRule(r *Rule, v ruleVariant, stats *Stats, sink *requestSink) ([]relstore.Tuple, error) {
	rs := e.rowSchemas[r]
	steps := e.cachedPlan(r, v.deltaAtom, stats).steps

	// One initial row with no slot bound.
	in := &rowBatch{
		width: len(rs.vars),
		vals:  make([]relstore.Value, len(rs.vars)),
		masks: []uint64{0},
	}
	for _, st := range steps {
		if in.rows() == 0 {
			break
		}
		var err error
		switch l := st.lit.(type) {
		case *Atom:
			// Atoms written after a counting variant's changed atom read
			// their relation's old state.
			var old *oldState
			if v.sign != 0 && st.bodyIndex > v.deltaAtom {
				old = v.d.olds[l.Predicate]
			}
			switch {
			case st.keys:
				in, err = e.joinAtomBatch(l, rs.negKeys[l].refs, st.probeCols, in, v.deltaTuples, nil, stats, nil)
			case l.Negated:
				err = e.filterNegatedBatch(l, rs.atoms[l], st.probeCols, in, old, stats)
			default:
				var restrict []relstore.Tuple
				if v.deltaAtom == st.bodyIndex {
					restrict = v.deltaTuples
				}
				in, err = e.joinAtomBatch(l, rs.atoms[l], st.probeCols, in, restrict, old, stats, requestSinkFor(v, st.bodyIndex, sink))
			}
			if err != nil {
				return nil, err
			}
		case *Comparison:
			filterComparisonBatch(l, rs.comps[l], in)
		}
	}
	// Materialise head tuples straight from slots. Tuples are carved out of
	// shared arenas: emitted tuples are capped sub-slices, an arena is only
	// ever appended to, and relations keep inserted tuples verbatim
	// (immutable by contract), so sharing the backing array is safe and head
	// emission costs a handful of allocations per variant instead of one per
	// binding. Arenas are chunked: a retained tuple pins at most one chunk,
	// so a variant whose candidates are mostly duplicates cannot pin the
	// whole candidate set in memory through the few tuples the relation
	// keeps.
	width := len(rs.head)
	chunk := in.rows() * width
	if chunk > headArenaChunk {
		chunk = headArenaChunk
	}
	arena := make(relstore.Tuple, 0, chunk)
	out := make([]relstore.Tuple, 0, in.rows())
	for i := 0; i < in.rows(); i++ {
		row, mask := in.row(i), in.masks[i]
		if len(arena)+width > cap(arena) {
			arena = make(relstore.Tuple, 0, chunk)
		}
		base := len(arena)
		for _, ref := range rs.head {
			v, _ := ref.value(row, mask)
			arena = append(arena, v)
		}
		out = append(out, arena[base:len(arena):len(arena)])
	}
	return out, nil
}

// headArenaChunk caps the values per head-emission arena chunk (and with it
// the memory a single retained head tuple can pin).
const headArenaChunk = 4096

// joinPresizeMaxRows caps how many output rows a join pre-allocates, bounding
// the waste when few of the rows it sized for match.
const joinPresizeMaxRows = 4096

// deltaHashMinTuples is the smallest restricted tuple set worth hashing on
// its bound columns: below it a linear scan beats building the frontier map.
const deltaHashMinTuples = 16

// joinAtomBatch extends each row of the batch with the tuples of the atom's
// relation that are consistent with it. For open relations it additionally
// records a task request candidate for every row whose key has no matching
// fact yet, unless sink is nil (requestSinkFor: no row of this step can open
// a new request).
//
// When probeCols names bound term positions and the relation carries (or
// earns, via the auto-indexing policy) a matching composite index, each row
// is answered with an equality probe — O(matches) instead of O(|relation|).
// Restricted evaluation (a delta, a negated atom's flipped keys, or a chunk
// of a split full scan) cannot use the relation's indexes; the restricted
// tuples form a frontier instead, hashed per call on the bound columns when
// it is large enough (see newFrontier). old, when set, makes the step read
// the relation's old state: probed or scanned tuples in old.skip are
// ignored and the tuples in old.extra, a frontier of their own, are joined
// too. The probe callback captures a shared cursor instead of the loop
// variable, so one closure serves the whole batch. The output batch is
// pre-sized from sizes the step already holds: one row per input row when
// columns are bound, every scanned or restricted tuple per input row
// otherwise, and nothing when there is no tuple to join. A probe's fan-out
// shows only once the first row has joined, so that row's matches then size
// the batch for the rest.
func (e *Engine) joinAtomBatch(a *Atom, refs []termRef, probeCols []int, in *rowBatch, restrict []relstore.Tuple, old *oldState, stats *Stats, sink *requestSink) (*rowBatch, error) {
	rel := e.db.Relation(a.Predicate)
	if rel == nil {
		return nil, fmt.Errorf("cylog: relation %q is not declared", a.Predicate)
	}
	decl := e.analysis.Program.DeclarationFor(a.Predicate)
	open := sink != nil && decl != nil && decl.Open
	if open {
		stats.RequestChecks += in.rows()
	}

	var restricted, extra frontier
	var all []relstore.Tuple
	probe := false
	perRow := 1 // output rows to pre-size per input row
	switch {
	case restrict != nil:
		restricted = newFrontier(restrict, probeCols, in.rows())
		perRow = len(restrict)
	case len(probeCols) > 0 && e.shouldProbe(rel, probeCols):
		probe = true
	default:
		all = rel.All()
		stats.FullScans++
		perRow = len(all)
	}
	if len(probeCols) > 0 {
		perRow = min(perRow, 1)
	}
	out := &rowBatch{width: in.width}
	out.reserve(min(in.rows()*perRow, joinPresizeMaxRows))
	if old != nil {
		extra = newFrontier(old.extra, probeCols, in.rows())
	}

	vals := make([]relstore.Value, len(probeCols))
	var srcRow []relstore.Value
	var srcMask uint64
	matched := false
	extend := func(t relstore.Tuple) {
		if out.tryExtend(refs, t, srcRow, srcMask) {
			matched = true
			stats.JoinedBindings++
		}
	}
	var emit func(relstore.Tuple) bool
	if probe {
		emit = func(t relstore.Tuple) bool {
			if !old.skips(t) {
				extend(t)
			}
			return true
		}
	}
	for i := 0; i < in.rows(); i++ {
		srcRow, srcMask = in.row(i), in.masks[i]
		matched = false
		switch {
		case probe:
			for j, ti := range probeCols {
				vals[j], _ = refs[ti].value(srcRow, srcMask)
			}
			indexed, err := rel.ScanEqAt(probeCols, vals, emit)
			if err != nil {
				return nil, err
			}
			stats.IndexProbes++
			if indexed {
				stats.IndexHits++
			}
		case restrict != nil:
			for _, t := range restricted.candidates(refs, probeCols, vals, srcRow, srcMask, stats) {
				extend(t)
			}
		default:
			for _, t := range all {
				if !old.skips(t) {
					extend(t)
				}
			}
		}
		for _, t := range extra.candidates(refs, probeCols, vals, srcRow, srcMask, stats) {
			extend(t)
		}
		if open {
			e.maybeRequest(decl, refs, srcRow, srcMask, matched, sink)
		}
		if i == 0 {
			out.reserve(min(out.rows()*in.rows(), joinPresizeMaxRows))
		}
	}
	return out, nil
}

// frontier is an explicit tuple list a join step reads instead of (or on top
// of) the relation: a restricted delta, a negated atom's flipped keys, or
// the tuples an old-state read adds back. Lists of at least
// deltaHashMinTuples tuples met by more than one row are keyed once on the
// step's bound columns, so every row probes in O(matches) like an indexed
// relation; buckets keep insertion order and tryExtend re-verifies equality,
// so hash collisions are harmless. Smaller lists are scanned per row.
type frontier struct {
	tuples []relstore.Tuple
	hashed map[uint64][]relstore.Tuple
}

func newFrontier(tuples []relstore.Tuple, probeCols []int, rows int) frontier {
	f := frontier{tuples: tuples}
	if len(probeCols) > 0 && rows > 1 && len(tuples) >= deltaHashMinTuples {
		f.hashed = make(map[uint64][]relstore.Tuple, len(tuples))
		for _, t := range tuples {
			h := t.HashAt(probeCols...)
			f.hashed[h] = append(f.hashed[h], t)
		}
	}
	return f
}

// candidates returns the tuples that may match the binding row: the bucket
// of the row's bound-column values (read into vals) when the list is
// hashed, the whole list otherwise.
func (f frontier) candidates(refs []termRef, probeCols []int, vals []relstore.Value, row []relstore.Value, mask uint64, stats *Stats) []relstore.Tuple {
	if f.hashed == nil {
		return f.tuples
	}
	for j, ti := range probeCols {
		vals[j], _ = refs[ti].value(row, mask)
	}
	stats.DeltaHashProbes++
	return f.hashed[relstore.HashValues(vals...)]
}

// filterNegatedBatch keeps only the rows for which no tuple of the negated
// atom's relation — in its old state when old is set — matches, compacting
// the batch in place.
func (e *Engine) filterNegatedBatch(a *Atom, refs []termRef, probeCols []int, in *rowBatch, old *oldState, stats *Stats) error {
	rel := e.db.Relation(a.Predicate)
	if rel == nil {
		return nil
	}
	if in.rows() == 0 {
		return nil
	}
	matches := e.negMatcher(rel, refs, probeCols, old, stats)
	n := 0
	for i := 0; i < in.rows(); i++ {
		matched, err := matches(in.row(i), in.masks[i])
		if err != nil {
			return err
		}
		if !matched {
			in.keep(n, i)
			n++
		}
	}
	in.truncate(n)
	return nil
}

// negMatcher returns the existence check of a negated atom: does some tuple
// of rel — in its old state when old is set — match the atom's terms under a
// binding row? Bound term positions (probeCols) narrow the check to an
// indexed equality probe when the relation has earned an index; any tuple
// matching the atom necessarily agrees on the bound columns, so the
// restricted scan is equivalent to the full one. Without an index the
// relation is scanned per row, counted once as a full scan.
func (e *Engine) negMatcher(rel *relstore.Relation, refs []termRef, probeCols []int, old *oldState, stats *Stats) func(row []relstore.Value, mask uint64) (bool, error) {
	probe := len(probeCols) > 0 && e.shouldProbe(rel, probeCols)
	var vals []relstore.Value
	if probe {
		vals = make([]relstore.Value, len(probeCols))
	} else {
		stats.FullScans++
	}
	// scratch receives the (discarded) trial extensions of the existence
	// checks; reusing one batch keeps the check allocation-free after the
	// first hit.
	scratch := &rowBatch{}
	var srcRow []relstore.Value
	var srcMask uint64
	matched := false
	check := func(t relstore.Tuple) bool {
		if !old.skips(t) && scratch.tryExtend(refs, t, srcRow, srcMask) {
			scratch.truncate(0)
			matched = true
			return false
		}
		return true
	}
	return func(row []relstore.Value, mask uint64) (bool, error) {
		srcRow, srcMask = row, mask
		matched = false
		if probe {
			for j, ti := range probeCols {
				vals[j], _ = refs[ti].value(row, mask)
			}
			indexed, err := rel.ScanEqAt(probeCols, vals, check)
			if err != nil {
				return false, err
			}
			stats.IndexProbes++
			if indexed {
				stats.IndexHits++
			}
		} else {
			rel.Scan(check)
		}
		if !matched && old != nil {
			for _, t := range old.extra {
				if !check(t) {
					break
				}
			}
		}
		return matched, nil
	}
}

// filterComparisonBatch keeps the rows satisfying the comparison, compacting
// the batch in place; rows with an unbound side are dropped.
func filterComparisonBatch(c *Comparison, refs [2]termRef, in *rowBatch) {
	n := 0
	for i := 0; i < in.rows(); i++ {
		row, mask := in.row(i), in.masks[i]
		l, lok := refs[0].value(row, mask)
		r, rok := refs[1].value(row, mask)
		if !lok || !rok {
			continue
		}
		if compareValues(l, r, c.Op) {
			in.keep(n, i)
			n++
		}
	}
	in.truncate(n)
}
