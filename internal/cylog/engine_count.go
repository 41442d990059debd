package cylog

import (
	"fmt"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Counting maintenance
//
// This file holds the signed deltas that drive the stratum loop and the
// merge step that applies their derivations (docs/ARCHITECTURE.md §9). A
// round's staged facts, and every stratum's net head changes, form a delta;
// for every body atom over a changed relation the loop evaluates the rule
// with that atom restricted to the change. Atoms written before it read the
// relations as stored (the new state), atoms written after it read the old
// state (oldState), so each derivation that appeared or vanished is found
// exactly once and applied with InsertDerived or DecDerived.

// delta is a signed change set: per relation, the tuples that were inserted
// (plus) and removed (minus) since the state the old-state reads stand for.
// A stratum's first iteration reads the round's delta; each later iteration
// reads the net changes of the iteration before it.
type delta struct {
	plus, minus map[string][]relstore.Tuple
	// olds caches each changed relation's old-state adjustment. The
	// coordinator builds the entries the iteration's variants need
	// (prepareOld) before the workers run; workers only read them.
	olds map[string]*oldState
}

func newDelta() *delta {
	return &delta{plus: make(map[string][]relstore.Tuple)}
}

// lose records tuples removed from rel. The minus map is made on first use:
// most deltas only insert.
func (d *delta) lose(rel string, ts ...relstore.Tuple) {
	if d.minus == nil {
		d.minus = make(map[string][]relstore.Tuple)
	}
	d.minus[rel] = append(d.minus[rel], ts...)
}

// changed reports whether rel gained or lost tuples.
func (d *delta) changed(rel string) bool {
	return len(d.plus[rel]) > 0 || len(d.minus[rel]) > 0
}

// empty reports whether no relation changed.
func (d *delta) empty() bool {
	for _, ts := range d.plus {
		if len(ts) > 0 {
			return false
		}
	}
	for _, ts := range d.minus {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// reaches reports whether any relation in inputs changed.
func (d *delta) reaches(inputs map[string]bool) bool {
	for rel := range inputs {
		if d.changed(rel) {
			return true
		}
	}
	return false
}

// add appends the changes of o to d.
func (d *delta) add(o *delta) {
	for rel, ts := range o.plus {
		if len(ts) > 0 {
			d.plus[rel] = append(d.plus[rel], ts...)
		}
	}
	for rel, ts := range o.minus {
		if len(ts) > 0 {
			d.lose(rel, ts...)
		}
	}
}

// cancel drops every tuple that is both in plus and in minus of a relation,
// one pair at a time — a tuple added and removed again, or removed and added
// again — so the lists hold net changes only and the old state they imply is
// the real one. Relations changed in one direction only are left untouched.
func (d *delta) cancel() {
	for rel, minus := range d.minus {
		plus := d.plus[rel]
		if len(plus) == 0 || len(minus) == 0 {
			continue
		}
		unpaired := make(map[string]int, len(minus))
		for _, t := range minus {
			unpaired[t.Key()]++
		}
		var keptPlus, keptMinus []relstore.Tuple
		for _, t := range plus {
			if k := t.Key(); unpaired[k] > 0 {
				unpaired[k]--
				continue
			}
			keptPlus = append(keptPlus, t)
		}
		// unpaired now counts, per tuple, the removals no insertion undid.
		for _, t := range minus {
			if k := t.Key(); unpaired[k] > 0 {
				unpaired[k]--
				keptMinus = append(keptMinus, t)
			}
		}
		d.plus[rel], d.minus[rel] = keptPlus, keptMinus
	}
}

// tupleSet is a membership set of tuples, bucketed by Tuple.Hash.
type tupleSet map[uint64][]relstore.Tuple

func newTupleSet(ts []relstore.Tuple) tupleSet {
	s := make(tupleSet, len(ts))
	for _, t := range ts {
		s.add(t)
	}
	return s
}

func (s tupleSet) add(t relstore.Tuple) {
	h := t.Hash()
	s[h] = append(s[h], t)
}

func (s tupleSet) has(t relstore.Tuple) bool {
	for _, o := range s[t.Hash()] {
		if o.Equal(t) {
			return true
		}
	}
	return false
}

// oldState turns a read of a relation's stored tuples into a read of its
// old state: the tuples in skip are ignored, the tuples in extra are matched
// as well. A nil *oldState reads the stored tuples unchanged.
type oldState struct {
	skip  tupleSet
	extra []relstore.Tuple
}

// skips reports whether the old state lacks t.
func (o *oldState) skips(t relstore.Tuple) bool {
	return o != nil && o.skip != nil && o.skip.has(t)
}

// old returns rel's old-state adjustment, building it on first use. Only the
// coordinator calls it; evaluation reads d.olds directly.
func (d *delta) old(rel string) *oldState {
	if !d.changed(rel) {
		return nil
	}
	if d.olds == nil {
		d.olds = make(map[string]*oldState)
	}
	o, ok := d.olds[rel]
	if !ok {
		o = &oldState{extra: d.minus[rel]}
		if plus := d.plus[rel]; len(plus) > 0 {
			o.skip = newTupleSet(plus)
		}
		d.olds[rel] = o
	}
	return o
}

// prepareOld builds the old-state adjustments of the atoms a variant over
// body atom i reads in the old state: the changed atoms written after it.
func (d *delta) prepareOld(r *Rule, i int) {
	for _, lit := range r.Body[i+1:] {
		if a, ok := lit.(*Atom); ok {
			d.old(a.Predicate)
		}
	}
}

// flippedKeys returns the keys of a negated atom (negKey) whose match
// flipped between the old and the new state of its relation: unblocked keys
// matched some tuple before and match none now, blocked keys the reverse.
// Each changed tuple is projected onto the key once; a key appears once
// however many changed tuples project onto it, and not at all when the atom
// still matches something in both states — for !reach(_, N), a new
// reach(3, 5) changes nothing while reach(1, 5) stands. Caller is the
// coordinator, with the database stable.
func (e *Engine) flippedKeys(r *Rule, a *Atom, d *delta) (unblocked, blocked []relstore.Tuple, err error) {
	rs := e.rowSchemas[r]
	refs, key := rs.atoms[a], rs.negKeys[a]
	rel := e.db.Relation(a.Predicate)
	if rel == nil {
		return nil, nil, fmt.Errorf("cylog: relation %q is not declared", a.Predicate)
	}
	var scratch Stats
	now := e.negMatcher(rel, refs, key.cols, nil, &scratch)
	before := e.negMatcher(rel, refs, key.cols, d.old(a.Predicate), &scratch)
	zero := make([]relstore.Value, len(rs.vars))
	row := make([]relstore.Value, len(rs.vars))
	trial := &rowBatch{width: len(rs.vars)}
	seen := tupleSet{}
	for _, changed := range [][]relstore.Tuple{d.plus[a.Predicate], d.minus[a.Predicate]} {
		for _, t := range changed {
			// A tuple the atom can never match (a constant or a repeated
			// variable disagrees) flips nothing.
			if !trial.tryExtend(refs, t, zero, 0) {
				continue
			}
			trial.truncate(0)
			k := t.Project(key.cols...)
			if seen.has(k) {
				continue
			}
			seen.add(k)
			mask := key.bind(k, row)
			matchedNow, err := now(row, mask)
			if err != nil {
				return nil, nil, err
			}
			matchedBefore, err := before(row, mask)
			if err != nil {
				return nil, nil, err
			}
			switch {
			case matchedBefore && !matchedNow:
				unblocked = append(unblocked, k)
			case matchedNow && !matchedBefore:
				blocked = append(blocked, k)
			}
		}
	}
	return unblocked, blocked, nil
}

// mergeOutputs applies one iteration's evaluation output in plan order:
// every gained derivation first (InsertDerived, request support added), then
// every lost one (DecDerived, request support subtracted), so no count dips
// below zero on its way to its exact value. It returns the iteration's net
// changes — the tuples that appeared or vanished — which the next iteration
// reads. A loss the counts cannot cover fails the run. Caller holds e.mu.
func (e *Engine) mergeOutputs(stratum int, tasks []evalTask, outputs []evalOutput, stats *Stats) (*delta, error) {
	for _, out := range outputs {
		if out.err != nil {
			return nil, out.err
		}
	}
	next := newDelta()
	for _, lost := range []bool{false, true} {
		for i := range outputs {
			if (tasks[i].v.sign < 0) != lost {
				continue
			}
			out := &outputs[i]
			stats.merge(out.stats)
			r := tasks[i].rule
			h := r.Head.Predicate
			head := e.db.Relation(h)
			for _, t := range out.tuples {
				if lost {
					removed, err := head.DecDerived(t)
					if err != nil {
						return nil, fmt.Errorf("cylog: rule %s lost a derivation that was never counted: %w", r, err)
					}
					if removed {
						next.lose(h, t)
					}
					continue
				}
				added, err := head.InsertDerived(t)
				if err != nil {
					return nil, fmt.Errorf("cylog: rule %s produced a tuple that does not match the schema of %s: %w", r, h, err)
				}
				if added {
					next.plus[h] = append(next.plus[h], t)
				}
			}
			if err := e.admitRequests(&out.requests, stratum, lost); err != nil {
				return nil, err
			}
		}
	}
	next.cancel()
	for _, ts := range next.plus {
		stats.DerivedFacts += len(ts)
	}
	for _, ts := range next.minus {
		stats.RetractedTuples += len(ts)
	}
	return next, nil
}
