package cylog

import (
	"sort"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

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
// between them. The one exception is an open atom restricted to its seeded
// delta (the answers of an incremental run), which generates no requests
// (requestSinkFor) and is hoisted (planRule).
//
// Within a run the choice is boundness-driven — atoms whose join columns are
// already bound come first (they can be answered by an index probe). Ties
// between equally-bound atoms break by estimated matches per probe from the
// catalog's per-column distinct counts, then by cardinality, then by source
// position so plans are deterministic and stable.

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
	// estMatches is the cost planner's estimate of how many tuples this step
	// matches per input binding — |R| / Π distinct(probe column), rounded up —
	// which the columnar join uses to pre-size its output batch; 0 for an
	// empty relation.
	estMatches int
}

// planCatalog supplies the planner with the catalog facts it needs: which
// relations are open, the current cardinality of a relation (the selectivity
// estimate for unbound atoms), and per-column distinct-count estimates.
type planCatalog struct {
	isOpen   func(predicate string) bool
	card     func(predicate string) int
	distinct func(predicate string, col int) int
}

// estMatchesPerProbe estimates how many tuples of the atom's relation match
// one input binding with the given columns bound: the relation's cardinality
// divided by the product of the bound columns' distinct counts — the uniform
// independence assumption every textbook selectivity model starts from.
func estMatchesPerProbe(cat planCatalog, a *Atom, probeCols []int) float64 {
	est := float64(cat.card(a.Predicate))
	for _, c := range probeCols {
		if d := cat.distinct(a.Predicate, c); d > 1 {
			est /= float64(d)
		}
	}
	return est
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
func planRule(r *Rule, deltaAtom int, cat planCatalog) []planStep {
	bound := make(map[string]bool)
	steps := make([]planStep, 0, len(r.Body))

	var run []int // body indexes of the current run of reorderable atoms
	flush := func() {
		for len(run) > 0 {
			best := pickAtom(r, run, deltaAtom, bound, cat)
			atom := r.Body[run[best]].(*Atom)
			probe := probeColumns(atom, bound)
			steps = append(steps, planStep{
				lit:        atom,
				bodyIndex:  run[best],
				probeCols:  probe,
				estMatches: stepEstimate(cat, atom, probe),
			})
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
				step.estMatches = stepEstimate(cat, atom, step.probeCols)
				bindAtomVars(atom, bound)
			}
		}
		steps = append(steps, step)
	}

	lead := openDeltaSegment(r, deltaAtom, cat)
	for i, lit := range r.Body {
		if i == lead {
			// The previous literal, if any, was a barrier that flushed the run.
			place(deltaAtom)
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

// openDeltaSegment returns the body index a seeded open delta atom is hoisted
// to — the first literal after the last negation or comparison preceding it
// (0 when there is none) — or -1 when deltaAtom is not an open atom.
func openDeltaSegment(r *Rule, deltaAtom int, cat planCatalog) int {
	if deltaAtom < 0 || !cat.isOpen(r.Body[deltaAtom].(*Atom).Predicate) {
		return -1
	}
	for i := deltaAtom - 1; i >= 0; i-- {
		if atom, ok := r.Body[i].(*Atom); !ok || atom.Negated {
			return i + 1
		}
	}
	return 0
}

// stepEstimate converts the per-probe match estimate into the integer hint a
// planStep carries: rounded up, at least 1 for any non-empty relation, and 0
// when there is no estimate to give.
func stepEstimate(cat planCatalog, a *Atom, probeCols []int) int {
	est := estMatchesPerProbe(cat, a, probeCols)
	if est <= 0 {
		return 0
	}
	n := int(est)
	if float64(n) < est {
		n++
	}
	return n
}

// pickAtom returns the index into run of the atom to schedule next: the delta
// atom if present, otherwise the atom with the most bound term positions.
// Equally-bound atoms order by estimated matches per probe (real
// selectivity: a probe on a near-unique column of a large relation beats one
// fanning out over a skewed column of a small one), then by smaller relation
// cardinality, then by source position.
func pickAtom(r *Rule, run []int, deltaAtom int, bound map[string]bool, cat planCatalog) int {
	type score struct {
		runIndex  int
		boundCols int
		est       float64
		card      int
		bodyIndex int
	}
	scores := make([]score, len(run))
	for i, bi := range run {
		if bi == deltaAtom {
			return i
		}
		atom := r.Body[bi].(*Atom)
		probe := probeColumns(atom, bound)
		scores[i] = score{
			runIndex:  i,
			boundCols: len(probe),
			est:       estMatchesPerProbe(cat, atom, probe),
			card:      cat.card(atom.Predicate),
			bodyIndex: bi,
		}
	}
	sort.Slice(scores, func(i, j int) bool {
		a, b := scores[i], scores[j]
		if a.boundCols != b.boundCols {
			return a.boundCols > b.boundCols
		}
		if a.est != b.est {
			return a.est < b.est
		}
		if a.card != b.card {
			return a.card < b.card
		}
		return a.bodyIndex < b.bodyIndex
	})
	return scores[0].runIndex
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
	// head holds the head terms' slot references, in head column order.
	head []termRef
}

// newRowSchema assigns slots for the rule's variable inventory (as computed by
// the analyzer, which caps it at maxRowSlots) and resolves every literal.
func newRowSchema(r *Rule, vars []string) *rowSchema {
	rs := &rowSchema{
		vars:  vars,
		slots: make(map[string]int, len(vars)),
		atoms: make(map[*Atom][]termRef, len(r.Body)),
		comps: make(map[*Comparison][2]termRef),
	}
	for i, v := range vars {
		rs.slots[v] = i
	}
	for _, lit := range r.Body {
		switch l := lit.(type) {
		case *Atom:
			rs.atoms[l] = rs.resolveTerms(l.Terms)
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
