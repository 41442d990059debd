package cylog

import "github.com/crowd4u/crowd4u-go/internal/relstore"

// This file implements the rule planner: a greedy join orderer in the style
// of pattern-based Datalog engines (cf. janus-datalog's
// reorder-plan-by-relations). For every rule evaluation the planner decides
//
//   - the order in which body literals are joined, and
//   - which term positions of each atom are already bound when the atom is
//     reached (its probe columns), so the engine can answer the join with an
//     indexed equality lookup instead of a full-relation scan.
//
// Reordering is applied to positive atoms over *closed* relations, because
// the engine's observable behaviour depends on the evaluation position of
// everything else:
//
//   - open atoms generate human task requests from the bindings that reach
//     them, so the set of literals evaluated before an open atom must stay
//     exactly as written;
//   - negated atoms and comparisons filter with respect to the variables
//     bound at their textual position (an unbound comparison drops bindings;
//     a partially bound negation matches more broadly), so moving them would
//     change rule semantics.
//
// Those literals therefore act as barriers: they stay in source order, and
// the planner greedily reorders only the runs of closed positive atoms
// between them. The exceptions are the restricted atoms of counting
// variants: an open atom restricted to its seeded delta (the answers of an
// incremental run), which generates no requests (requestSinkFor), and the
// flipped keys of a changed negated atom; both are hoisted (planRule).
//
// Within a run the choice is boundness-driven — atoms whose join columns are
// already bound come first (they can be answered by an index probe). Ties
// between equally-bound atoms break by cardinality, then by source position
// so plans are deterministic and stable.

// planStep is one body literal in execution order.
type planStep struct {
	lit Literal
	// bodyIndex is the literal's position in the original rule body (used to
	// recognise the semi-naive delta atom and for stable ordering).
	bodyIndex int
	// probeCols lists the term positions of an atom that are bound when the
	// step runs: positions holding constants or variables bound by earlier
	// steps. The engine turns them into indexed equality probes. Empty for
	// comparisons and for atoms with no bound positions.
	probeCols []int
	// keys marks the step that joins a negated delta atom's flipped keys
	// (negKey tuples) instead of evaluating the atom; probeCols then index
	// the key tuple, not the atom.
	keys bool
}

// planCatalog supplies the planner with the catalog facts it needs: which
// relations are open and the current cardinality of a relation (the
// tie-break between equally-bound atoms).
type planCatalog struct {
	isOpen func(predicate string) bool
	card   func(predicate string) int
}

// planRule orders the body of r for one evaluation pass. deltaAtom is the
// body index of the atom restricted to an explicit tuple set — the semi-naive
// delta frontier, a seed delta of an incremental run, or a chunk of a split
// full scan — and -1 for an unrestricted pass. Within its run the restricted
// atom is always scheduled first, since its tuple set is the smallest and
// most selective input of the pass (for full-scan chunks the engine only
// restricts the atom this planner would have scheduled first anyway, so the
// plan is unchanged).
//
// Seeded incremental passes widen what deltaAtom can point at: a recursive
// fixpoint only restricts in-stratum (closed, derived) atoms, but a seed
// delta names any relation answers or fresh facts landed in — most often an
// *open* relation. A seeded open delta atom leads its segment: it is
// scheduled ahead of every positive atom (closed or open) between the
// nearest preceding negation or comparison and itself, so the prefix is
// answered by probes on the delta's bindings instead of being scanned once
// per pass. Negations and comparisons before it keep it behind them. The
// move is safe because no request is generated at the hoisted atom or at an
// open atom before it (requestSinkFor).
//
// A negated deltaAtom names a negated atom whose relation changed: the pass
// is restricted to the keys whose match flipped (flippedKeys). The keys are
// joined at the start of the atom's segment, like a seeded open delta, and
// bind exactly the key variables — the ones bound at the atom's source
// position — so the atoms before it probe on them. The negated atom itself
// is not evaluated: its verdict is what made the key flip.
func planRule(r *Rule, deltaAtom int, cat planCatalog) []planStep {
	bound := make(map[string]bool)
	steps := make([]planStep, 0, len(r.Body))

	var run []int // body indexes of the current run of reorderable atoms
	flush := func() {
		for len(run) > 0 {
			best := pickAtom(r, run, deltaAtom, bound, cat)
			atom := r.Body[run[best]].(*Atom)
			steps = append(steps, planStep{lit: atom, bodyIndex: run[best], probeCols: probeColumns(atom, bound)})
			bindAtomVars(atom, bound)
			run = append(run[:best], run[best+1:]...)
		}
	}
	// place appends a literal at its position in the plan: negations and
	// comparisons filter on what is bound so far, positive atoms bind.
	place := func(i int) {
		step := planStep{lit: r.Body[i], bodyIndex: i}
		if atom, ok := r.Body[i].(*Atom); ok {
			step.probeCols = probeColumns(atom, bound)
			if !atom.Negated {
				bindAtomVars(atom, bound)
			}
		}
		steps = append(steps, step)
	}

	// placeKeys joins a negated delta atom's flipped keys and binds the key
	// variables.
	placeKeys := func(i int) {
		atom := r.Body[i].(*Atom)
		step := planStep{lit: atom, bodyIndex: i, keys: true}
		cols := negKeyColumns(r, i)
		for p, c := range cols {
			if v, ok := atom.Terms[c].(Variable); ok && bound[string(v)] {
				step.probeCols = append(step.probeCols, p)
			}
		}
		for _, c := range cols {
			if v, ok := atom.Terms[c].(Variable); ok {
				bound[string(v)] = true
			}
		}
		steps = append(steps, step)
	}

	lead := deltaSegment(r, deltaAtom, cat)
	for i, lit := range r.Body {
		if i == lead {
			// The previous literal, if any, was a barrier that flushed the run.
			if r.Body[deltaAtom].(*Atom).Negated {
				placeKeys(deltaAtom)
			} else {
				place(deltaAtom)
			}
		}
		if i == deltaAtom && lead >= 0 {
			continue
		}
		if atom, ok := lit.(*Atom); ok && !atom.Negated && !cat.isOpen(atom.Predicate) {
			run = append(run, i)
			continue
		}
		flush()
		place(i)
	}
	flush()
	return steps
}

// deltaSegment returns the body index a seeded open delta atom, or the keys
// of a negated delta atom, are hoisted to — the first literal after the last
// negation or comparison preceding the atom (0 when there is none) — or -1
// when deltaAtom is neither (a closed delta atom leads its run instead).
func deltaSegment(r *Rule, deltaAtom int, cat planCatalog) int {
	if deltaAtom < 0 {
		return -1
	}
	if a := r.Body[deltaAtom].(*Atom); !a.Negated && !cat.isOpen(a.Predicate) {
		return -1
	}
	for i := deltaAtom - 1; i >= 0; i-- {
		if atom, ok := r.Body[i].(*Atom); !ok || atom.Negated {
			return i + 1
		}
	}
	return 0
}

// negKeyColumns returns the key of the negated atom at body index i: its
// term positions holding constants or variables bound by the positive atoms
// written before it, ascending. Whether the atom matches anything under a
// binding depends only on the binding's values there.
func negKeyColumns(r *Rule, i int) []int {
	bound := make(map[string]bool)
	for _, lit := range r.Body[:i] {
		if a, ok := lit.(*Atom); ok && !a.Negated {
			bindAtomVars(a, bound)
		}
	}
	return probeColumns(r.Body[i].(*Atom), bound)
}

// pickAtom returns the index into run of the atom to schedule next: the delta
// atom if present, otherwise the atom with the most bound term positions.
// Equally-bound atoms order by smaller relation cardinality, then by source
// position (run lists body indexes in source order).
func pickAtom(r *Rule, run []int, deltaAtom int, bound map[string]bool, cat planCatalog) int {
	best, bestBound, bestCard := -1, 0, 0
	for i, bi := range run {
		if bi == deltaAtom {
			return i
		}
		atom := r.Body[bi].(*Atom)
		n, card := len(probeColumns(atom, bound)), cat.card(atom.Predicate)
		if best < 0 || n > bestBound || (n == bestBound && card < bestCard) {
			best, bestBound, bestCard = i, n, card
		}
	}
	return best
}

// probeColumns returns the term positions of the atom holding constants or
// variables already bound, i.e. the columns an equality probe can constrain.
// Repeated variables contribute every position once the variable is bound.
func probeColumns(a *Atom, bound map[string]bool) []int {
	var cols []int
	for i, term := range a.Terms {
		switch tm := term.(type) {
		case Constant:
			cols = append(cols, i)
		case Variable:
			if !tm.Anonymous() && bound[string(tm)] {
				cols = append(cols, i)
			}
		}
	}
	return cols
}

// bindAtomVars marks the atom's variables as bound after it is scheduled.
func bindAtomVars(a *Atom, bound map[string]bool) {
	for _, v := range a.Variables() {
		if v != "_" {
			bound[v] = true
		}
	}
}

// Binding-row slot schemas
//
// The engine binds rule variables in a flat []Value row: every variable of a
// rule is assigned a fixed slot, and each literal's terms are pre-resolved to
// slot references so the hot join loop never touches a map or a variable
// name. The schema is static per rule (it depends only on the rule text, not
// on the plan or the delta variant), so the engine builds it once at
// construction and shares it across concurrent rule evaluations.

// Sentinel slot values for terms that do not name a row slot.
const (
	// slotConstant marks a term holding a ground constant; konst carries it.
	slotConstant = -1
	// slotAnon marks the anonymous variable "_", which never binds.
	slotAnon = -2
)

// maxRowSlots is the widest rule the engine supports: boundness is a uint64
// bitmask, one bit per slot. Analyze rejects rules with more variables.
const maxRowSlots = 64

// termRef is one literal term resolved against a rule's slot schema: either a
// row slot (>= 0), a constant (slotConstant, value in konst), or the
// anonymous variable (slotAnon).
type termRef struct {
	slot  int
	konst relstore.Value
}

// value reads the term's value under a binding row (the row's slot values
// plus its bound-slot mask), reporting whether it is bound.
func (ref termRef) value(row []relstore.Value, mask uint64) (relstore.Value, bool) {
	switch ref.slot {
	case slotConstant:
		return ref.konst, true
	case slotAnon:
		return relstore.Null(), false
	default:
		if mask&(uint64(1)<<uint(ref.slot)) != 0 {
			return row[ref.slot], true
		}
		return relstore.Null(), false
	}
}

// rowSchema is the compact variable→slot assignment of one rule plus the
// pre-resolved term references of every literal (and the head), so
// evaluation addresses values by position only.
type rowSchema struct {
	// vars maps slot -> variable name (the analyzer's inventory order).
	vars []string
	// slots maps variable name -> slot.
	slots map[string]int
	// atoms holds the per-term slot references of every body atom.
	atoms map[*Atom][]termRef
	// comps holds the left/right slot references of every comparison.
	comps map[*Comparison][2]termRef
	// negKeys holds the key of every negated atom (negKeyColumns).
	negKeys map[*Atom]negKey
	// head holds the head terms' slot references, in head column order.
	head []termRef
}

// negKey is the key of a negated atom: the term positions bound at its
// source position (negKeyColumns) and their term references, which read a
// key tuple — the atom's tuple projected onto cols — into row slots.
type negKey struct {
	cols []int
	refs []termRef
}

// bind writes the key tuple's variable values into row and returns the mask
// of the slots it bound.
func (k negKey) bind(key relstore.Tuple, row []relstore.Value) uint64 {
	var mask uint64
	for p, ref := range k.refs {
		if ref.slot >= 0 {
			row[ref.slot] = key[p]
			mask |= uint64(1) << uint(ref.slot)
		}
	}
	return mask
}

// newRowSchema assigns slots for the rule's variable inventory (as computed by
// the analyzer, which caps it at maxRowSlots) and resolves every literal.
func newRowSchema(r *Rule, vars []string) *rowSchema {
	rs := &rowSchema{
		vars:    vars,
		slots:   make(map[string]int, len(vars)),
		atoms:   make(map[*Atom][]termRef, len(r.Body)),
		comps:   make(map[*Comparison][2]termRef),
		negKeys: make(map[*Atom]negKey),
	}
	for i, v := range vars {
		rs.slots[v] = i
	}
	for i, lit := range r.Body {
		switch l := lit.(type) {
		case *Atom:
			refs := rs.resolveTerms(l.Terms)
			rs.atoms[l] = refs
			if l.Negated {
				k := negKey{cols: negKeyColumns(r, i)}
				for _, c := range k.cols {
					k.refs = append(k.refs, refs[c])
				}
				rs.negKeys[l] = k
			}
		case *Comparison:
			rs.comps[l] = [2]termRef{rs.resolveTerm(l.Left), rs.resolveTerm(l.Right)}
		}
	}
	rs.head = rs.resolveTerms(r.Head.Terms)
	return rs
}

func (rs *rowSchema) resolveTerms(terms []Term) []termRef {
	out := make([]termRef, len(terms))
	for i, t := range terms {
		out[i] = rs.resolveTerm(t)
	}
	return out
}

func (rs *rowSchema) resolveTerm(t Term) termRef {
	switch tm := t.(type) {
	case Constant:
		return termRef{slot: slotConstant, konst: tm.Value}
	case Variable:
		if tm.Anonymous() {
			return termRef{slot: slotAnon}
		}
		if s, ok := rs.slots[string(tm)]; ok {
			return termRef{slot: s}
		}
		// Unreachable for analyzed rules: the inventory covers every variable.
		return termRef{slot: slotAnon}
	default:
		return termRef{slot: slotAnon}
	}
}
