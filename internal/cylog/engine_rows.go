package cylog

import (
	"fmt"

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
			refs := rs.atoms[l]
			if l.Negated {
				err = e.filterNegatedBatch(l, refs, st.probeCols, in, stats)
				if err != nil {
					return nil, err
				}
			} else {
				var restrict []relstore.Tuple
				if v.deltaAtom == st.bodyIndex {
					restrict = v.deltaTuples
				}
				in, err = e.joinAtomBatch(l, refs, st.probeCols, in, restrict, st.estMatches, stats, e.requestSinkFor(r, v, st.bodyIndex, sink))
				if err != nil {
					return nil, err
				}
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

// joinPresizeMaxRows caps how many output rows a join pre-allocates from the
// planner's estimate, bounding the damage of a wildly high estimate.
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
// Restricted evaluation (the semi-naive delta frontier, or a chunk of a
// split full scan) cannot use the relation's indexes; when the atom is
// reached with bound columns and enough rows, the restricted tuples are
// instead hashed per round on those columns so each row probes in O(matches)
// like an indexed base relation, and otherwise the (small) frontier is
// iterated directly. The probe callback captures a shared cursor instead of
// the loop variable, so one closure serves the whole batch. estMatches is
// the planner's matches-per-probe estimate for this step (0 = no estimate);
// it only pre-sizes the output batch, never changes what is emitted.
func (e *Engine) joinAtomBatch(a *Atom, refs []termRef, probeCols []int, in *rowBatch, restrict []relstore.Tuple, estMatches int, stats *Stats, sink *requestSink) (*rowBatch, error) {
	rel := e.db.Relation(a.Predicate)
	if rel == nil {
		return nil, fmt.Errorf("cylog: relation %q is not declared", a.Predicate)
	}
	decl := e.analysis.Program.DeclarationFor(a.Predicate)
	open := sink != nil && decl != nil && decl.Open
	if open {
		stats.RequestChecks += in.rows()
	}
	out := &rowBatch{width: in.width}
	if estMatches > 0 {
		rows := in.rows() * estMatches
		if rows > joinPresizeMaxRows {
			rows = joinPresizeMaxRows
		}
		out.vals = make([]relstore.Value, 0, rows*in.width)
		out.masks = make([]uint64, 0, rows)
	}

	if restrict == nil && len(probeCols) > 0 && e.shouldProbe(rel, probeCols) {
		vals := make([]relstore.Value, len(probeCols))
		var srcRow []relstore.Value
		var srcMask uint64
		matched := false
		emit := func(t relstore.Tuple) bool {
			if out.tryExtend(refs, t, srcRow, srcMask) {
				matched = true
				stats.JoinedBindings++
			}
			return true
		}
		for i := 0; i < in.rows(); i++ {
			srcRow, srcMask = in.row(i), in.masks[i]
			for j, ti := range probeCols {
				vals[j], _ = refs[ti].value(srcRow, srcMask)
			}
			matched = false
			indexed, err := rel.ScanEqAt(probeCols, vals, emit)
			if err != nil {
				return nil, err
			}
			stats.IndexProbes++
			if indexed {
				stats.IndexHits++
			}
			if open {
				e.maybeRequest(decl, refs, srcRow, srcMask, matched, sink)
			}
		}
		return out, nil
	}

	// Hashed delta frontier: key the restricted tuples on the atom's bound
	// columns once, then answer every row with a bucket probe. Buckets keep
	// insertion order and tryExtend re-verifies equality, so hash collisions
	// are harmless.
	if restrict != nil && len(probeCols) > 0 && in.rows() > 1 && len(restrict) >= deltaHashMinTuples {
		frontier := make(map[uint64][]relstore.Tuple, len(restrict))
		for _, t := range restrict {
			h := t.HashAt(probeCols...)
			frontier[h] = append(frontier[h], t)
		}
		vals := make([]relstore.Value, len(probeCols))
		for i := 0; i < in.rows(); i++ {
			srcRow, srcMask := in.row(i), in.masks[i]
			for j, ti := range probeCols {
				vals[j], _ = refs[ti].value(srcRow, srcMask)
			}
			matched := false
			for _, t := range frontier[relstore.HashValues(vals...)] {
				if out.tryExtend(refs, t, srcRow, srcMask) {
					matched = true
					stats.JoinedBindings++
				}
			}
			stats.DeltaHashProbes++
			if open {
				e.maybeRequest(decl, refs, srcRow, srcMask, matched, sink)
			}
		}
		return out, nil
	}

	tuples := restrict
	if tuples == nil {
		tuples = rel.All()
		stats.FullScans++
	}
	for i := 0; i < in.rows(); i++ {
		srcRow, srcMask := in.row(i), in.masks[i]
		matched := false
		for _, t := range tuples {
			if out.tryExtend(refs, t, srcRow, srcMask) {
				matched = true
				stats.JoinedBindings++
			}
		}
		if open {
			e.maybeRequest(decl, refs, srcRow, srcMask, matched, sink)
		}
	}
	return out, nil
}

// filterNegatedBatch keeps only the rows for which no tuple of the negated
// atom's relation matches, compacting the batch in place. Bound term
// positions (probeCols) narrow the existence check to an indexed equality
// probe when the relation has earned an index; any tuple matching the atom
// necessarily agrees on the bound columns, so the restricted scan is
// equivalent to the full one.
func (e *Engine) filterNegatedBatch(a *Atom, refs []termRef, probeCols []int, in *rowBatch, stats *Stats) error {
	rel := e.db.Relation(a.Predicate)
	if rel == nil {
		return nil
	}
	probe := len(probeCols) > 0 && e.shouldProbe(rel, probeCols)
	var vals []relstore.Value
	if probe {
		vals = make([]relstore.Value, len(probeCols))
	} else if in.rows() > 0 {
		stats.FullScans++
	}
	// scratch receives the (discarded) trial extensions of the existence
	// checks; reusing one batch keeps the filter allocation-free after the
	// first hit.
	scratch := &rowBatch{width: in.width}
	var srcRow []relstore.Value
	var srcMask uint64
	matched := false
	check := func(t relstore.Tuple) bool {
		if scratch.tryExtend(refs, t, srcRow, srcMask) {
			scratch.truncate(0)
			matched = true
			return false
		}
		return true
	}
	n := 0
	for i := 0; i < in.rows(); i++ {
		srcRow, srcMask = in.row(i), in.masks[i]
		matched = false
		if probe {
			for j, ti := range probeCols {
				vals[j], _ = refs[ti].value(srcRow, srcMask)
			}
			indexed, err := rel.ScanEqAt(probeCols, vals, check)
			if err != nil {
				return err
			}
			stats.IndexProbes++
			if indexed {
				stats.IndexHits++
			}
		} else {
			rel.Scan(check)
		}
		if !matched {
			in.keep(n, i)
			n++
		}
	}
	in.truncate(n)
	return nil
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
