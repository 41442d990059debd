// Package reference is a naive, from-scratch CyLog evaluator: the semantics
// that the engine's differential tests and the served-path checks compare
// against. It is written to be obviously correct, not fast.
//
// Evaluation takes the strata from cylog.Analyze and iterates each stratum
// naively: every rule is re-evaluated over the full relations until a pass
// derives nothing new. A rule body is matched in source order with map
// bindings and full scans over plain tuple sets. Positive atoms extend the
// bindings. Negated atoms and comparisons filter them at their written
// position: an unbound variable in a negated atom matches any value, and a
// comparison with an unbound side fails. There are no indexes, plans, delta
// frontiers or support counts.
//
// Open requests follow the engine's rule. At every positive open atom, a
// binding that determines the atom's key (the declared key, or else every
// column whose term is bound) and finds no fact of the open relation with
// that key yields a request, under the engine's id format. Open relations
// never shrink and bindings only grow within a stratum, so the requests found
// this way are exactly the engine's pending set.
//
// Derivations counts, over the fixpoint, what the engine's support counts
// must hold: the body instantiations of every derived tuple and the bindings
// behind every pending request.
package reference

import (
	"fmt"
	"sort"
	"strings"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Fixpoint is the from-scratch meaning of a program over a set of base facts.
type Fixpoint struct {
	// Relations maps every declared relation to its tuples, sorted.
	Relations map[string][]relstore.Tuple
	// Requests are the open requests the fixpoint leaves pending, sorted by
	// id.
	Requests []cylog.OpenRequest
}

// relation is a plain tuple set keyed by relstore.Tuple.Key.
type relation map[string]relstore.Tuple

// binding maps variable names to values.
type binding map[string]relstore.Value

type evaluator struct {
	program  *cylog.Program
	db       map[string]relation
	requests map[string]cylog.OpenRequest
	// bindings, when set, counts per request id every binding that reaches
	// an open atom with the request's key and no fact for it.
	bindings map[string]int
}

// Evaluate computes the fixpoint of p over the program's own facts plus base:
// tuples of relations no rule derives (EDB and open relations), keyed by
// relation name. Tuples are coerced to the declared schemas, as the engine
// stores them.
func Evaluate(p *cylog.Program, base map[string][]relstore.Tuple) (*Fixpoint, error) {
	ev, err := fixpoint(p, base)
	if err != nil {
		return nil, err
	}
	fp := &Fixpoint{Relations: make(map[string][]relstore.Tuple, len(ev.db))}
	for name, rel := range ev.db {
		fp.Relations[name] = sortedTuples(rel)
	}
	for _, r := range ev.requests {
		fp.Requests = append(fp.Requests, r)
	}
	sort.Slice(fp.Requests, func(i, j int) bool { return fp.Requests[i].ID < fp.Requests[j].ID })
	return fp, nil
}

// Counts is the support the engine must store for a fixpoint.
type Counts struct {
	// Tuples maps each derived relation to the derivation count of each of
	// its tuples, keyed by relstore.Tuple.Key: the number of distinct
	// instantiations of the bodies of its rules over the fixpoint, one per
	// combination of tuples matched by the positive atoms that passes the
	// negations and comparisons.
	Tuples map[string]map[string]int
	// Requests maps each pending request id to the number of its prefix
	// bindings: bindings of the literals written before an open atom that
	// reach the atom with the request's key and no fact for that key,
	// summed over every open atom of every rule.
	Requests map[string]int
}

// Derivations computes the fixpoint of p over base, as Evaluate does, and
// counts its derivations: every rule body is matched once more over the
// fixpoint, and every binding that reaches the head or an open atom is
// counted.
func Derivations(p *cylog.Program, base map[string][]relstore.Tuple) (*Counts, error) {
	ev, err := fixpoint(p, base)
	if err != nil {
		return nil, err
	}
	ev.bindings = make(map[string]int)
	c := &Counts{Tuples: make(map[string]map[string]int), Requests: ev.bindings}
	for _, r := range p.Rules {
		heads, err := ev.evalRule(r)
		if err != nil {
			return nil, err
		}
		counts := c.Tuples[r.Head.Predicate]
		if counts == nil {
			counts = make(map[string]int)
			c.Tuples[r.Head.Predicate] = counts
		}
		for _, t := range heads {
			ct, err := ev.coerce(r.Head.Predicate, t)
			if err != nil {
				return nil, err
			}
			counts[ct.Key()]++
		}
	}
	return c, nil
}

// fixpoint evaluates p over its own facts plus base, stratum by stratum.
func fixpoint(p *cylog.Program, base map[string][]relstore.Tuple) (*evaluator, error) {
	analysis, err := cylog.Analyze(p)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{program: p, db: make(map[string]relation), requests: make(map[string]cylog.OpenRequest)}
	for _, d := range p.Declarations {
		ev.db[d.Name] = relation{}
	}
	for _, f := range p.Facts {
		if _, err := ev.insert(f.Relation, f.Values); err != nil {
			return nil, err
		}
	}
	derived := derivedRelations(p)
	for name, ts := range base {
		if derived[name] {
			return nil, fmt.Errorf("reference: base facts given for %q, which rules derive", name)
		}
		for _, t := range ts {
			if _, err := ev.insert(name, t); err != nil {
				return nil, err
			}
		}
	}
	for _, stratum := range analysis.Strata {
		if err := ev.runStratum(stratum); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// runStratum re-evaluates every rule of the stratum over the full relations
// until a pass adds no tuple.
func (ev *evaluator) runStratum(rules []*cylog.Rule) error {
	for changed := true; changed; {
		changed = false
		var heads [][]relstore.Tuple
		for _, r := range rules {
			ts, err := ev.evalRule(r)
			if err != nil {
				return err
			}
			heads = append(heads, ts)
		}
		for i, r := range rules {
			for _, t := range heads[i] {
				added, err := ev.insert(r.Head.Predicate, t)
				if err != nil {
					return fmt.Errorf("reference: rule %s: %w", r, err)
				}
				changed = changed || added
			}
		}
	}
	return nil
}

// insert coerces the values to the relation's schema and adds the tuple,
// reporting whether it was new.
func (ev *evaluator) insert(name string, vals []relstore.Value) (bool, error) {
	t, err := ev.coerce(name, vals)
	if err != nil {
		return false, err
	}
	k := t.Key()
	if _, ok := ev.db[name][k]; ok {
		return false, nil
	}
	ev.db[name][k] = t
	return true, nil
}

// coerce converts the values to the relation's schema, as the engine stores
// them.
func (ev *evaluator) coerce(name string, vals []relstore.Value) (relstore.Tuple, error) {
	d := ev.program.DeclarationFor(name)
	if d == nil {
		return nil, fmt.Errorf("reference: relation %q is not declared", name)
	}
	t, err := d.Schema().Coerce(relstore.Tuple(vals))
	if err != nil {
		return nil, fmt.Errorf("reference: %s: %w", name, err)
	}
	return t, nil
}

// evalRule matches the body in source order and projects the head of every
// surviving binding, recording open requests along the way.
func (ev *evaluator) evalRule(r *cylog.Rule) ([]relstore.Tuple, error) {
	bindings := []binding{{}}
	for _, lit := range r.Body {
		var next []binding
		for _, b := range bindings {
			switch l := lit.(type) {
			case *cylog.Atom:
				matches := ev.match(l, b)
				switch {
				case l.Negated:
					if len(matches) == 0 {
						next = append(next, b)
					}
				default:
					next = append(next, matches...)
					if ev.program.IsOpen(l.Predicate) {
						ev.request(l, b)
					}
				}
			case *cylog.Comparison:
				lv, lok := value(l.Left, b)
				rv, rok := value(l.Right, b)
				if lok && rok && compare(lv, rv, l.Op) {
					next = append(next, b)
				}
			default:
				return nil, fmt.Errorf("reference: unknown literal %s", lit)
			}
		}
		bindings = next
	}
	out := make([]relstore.Tuple, 0, len(bindings))
	for _, b := range bindings {
		t := make(relstore.Tuple, len(r.Head.Terms))
		for i, term := range r.Head.Terms {
			t[i], _ = value(term, b)
		}
		out = append(out, t)
	}
	return out, nil
}

// match returns b extended by every tuple of the atom's relation that unifies
// with the atom's terms under b.
func (ev *evaluator) match(a *cylog.Atom, b binding) []binding {
	var out []binding
	for _, t := range ev.db[a.Predicate] {
		if nb, ok := unify(a, t, b); ok {
			out = append(out, nb)
		}
	}
	return out
}

// unify extends b so that the atom's terms equal the tuple's values, or
// reports false. b itself is never modified.
func unify(a *cylog.Atom, t relstore.Tuple, b binding) (binding, bool) {
	if len(t) != len(a.Terms) {
		return nil, false
	}
	nb, copied := b, false
	for i, term := range a.Terms {
		if v, isVar := term.(cylog.Variable); isVar && !v.Anonymous() {
			if _, bound := nb[string(v)]; !bound {
				if !copied {
					nb, copied = make(binding, len(b)+len(a.Terms)), true
					for k, x := range b {
						nb[k] = x
					}
				}
				nb[string(v)] = t[i]
				continue
			}
		}
		if want, bound := value(term, nb); bound && !want.Equal(t[i]) {
			return nil, false
		}
	}
	return nb, true
}

// request records an open request when the binding determines the atom's
// key and the open relation holds no fact for that key.
func (ev *evaluator) request(a *cylog.Atom, b binding) {
	d := ev.program.DeclarationFor(a.Predicate)
	keyCols := d.Key
	if len(keyCols) == 0 {
		for i, c := range d.Columns {
			if i < len(a.Terms) {
				if _, bound := value(a.Terms[i], b); bound {
					keyCols = append(keyCols, c.Name)
				}
			}
		}
	}
	if len(keyCols) == 0 {
		return
	}
	cols := make([]int, len(keyCols))
	vals := make([]relstore.Value, len(keyCols))
	for i, name := range keyCols {
		cols[i] = d.ColumnIndex(name)
		if cols[i] < 0 || cols[i] >= len(a.Terms) {
			return
		}
		v, bound := value(a.Terms[cols[i]], b)
		if !bound {
			return
		}
		vals[i] = v
	}
	for _, t := range ev.db[a.Predicate] {
		hasKey := true
		for i, c := range cols {
			hasKey = hasKey && t[c].Equal(vals[i])
		}
		if hasKey {
			return
		}
	}
	id := requestID(d.Name, vals)
	if ev.bindings != nil {
		ev.bindings[id]++
	}
	if _, ok := ev.requests[id]; ok {
		return
	}
	isKey := make(map[string]bool, len(keyCols))
	for _, c := range keyCols {
		isKey[c] = true
	}
	var open []string
	for _, c := range d.Columns {
		if !isKey[c.Name] {
			open = append(open, c.Name)
		}
	}
	ev.requests[id] = cylog.OpenRequest{
		ID:          id,
		Relation:    d.Name,
		Prompt:      d.Prompt,
		Scheme:      d.Scheme,
		KeyColumns:  append([]string(nil), keyCols...),
		KeyValues:   vals,
		OpenColumns: open,
	}
}

// requestID is the engine's request id: the relation name, then the key
// values as strings separated by the unit separator.
func requestID(rel string, vals []relstore.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.AsString()
	}
	return rel + "|" + strings.Join(parts, "\x1f")
}

// value reads a term under a binding, reporting whether it is bound.
func value(t cylog.Term, b binding) (relstore.Value, bool) {
	switch tm := t.(type) {
	case cylog.Constant:
		return tm.Value, true
	case cylog.Variable:
		v, ok := b[string(tm)]
		return v, ok && !tm.Anonymous()
	}
	return relstore.Null(), false
}

func compare(l, r relstore.Value, op cylog.CompareOp) bool {
	c := l.Compare(r)
	switch op {
	case cylog.OpEq:
		return l.Equal(r)
	case cylog.OpNe:
		return !l.Equal(r)
	case cylog.OpLt:
		return c < 0
	case cylog.OpLe:
		return c <= 0
	case cylog.OpGt:
		return c > 0
	case cylog.OpGe:
		return c >= 0
	}
	return false
}

func derivedRelations(p *cylog.Program) map[string]bool {
	out := make(map[string]bool, len(p.Rules))
	for _, r := range p.Rules {
		out[r.Head.Predicate] = true
	}
	return out
}

func sortedTuples(rel relation) []relstore.Tuple {
	out := make([]relstore.Tuple, 0, len(rel))
	for _, t := range rel {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// BaseFacts returns the engine's current base facts: the tuples of every
// relation no rule derives.
func BaseFacts(e *cylog.Engine) map[string][]relstore.Tuple {
	p := e.Analysis().Program
	derived := derivedRelations(p)
	out := make(map[string][]relstore.Tuple)
	for _, d := range p.Declarations {
		if !derived[d.Name] {
			out[d.Name] = e.Facts(d.Name)
		}
	}
	return out
}

// Check evaluates the engine's program from scratch over base and reports the
// first difference from the engine's facts or pending requests, or nil when
// every relation and every pending request agrees.
func Check(e *cylog.Engine, base map[string][]relstore.Tuple) error {
	p := e.Analysis().Program
	fp, err := Evaluate(p, base)
	if err != nil {
		return err
	}
	for _, d := range p.Declarations {
		if err := sameLines("relation "+d.Name, tupleLines(e.Facts(d.Name)), tupleLines(fp.Relations[d.Name])); err != nil {
			return err
		}
	}
	return sameLines("pending requests", requestLines(e.PendingRequests()), requestLines(fp.Requests))
}

func tupleLines(ts []relstore.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func requestLines(rs []cylog.OpenRequest) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID + " " + r.String()
	}
	return out
}

// sameLines reports the first line where the engine's rendering differs from
// the reference's.
func sameLines(what string, engine, ref []string) error {
	for i := 0; i < len(engine) || i < len(ref); i++ {
		var e, r string
		if i < len(engine) {
			e = engine[i]
		}
		if i < len(ref) {
			r = ref[i]
		}
		if e != r {
			return fmt.Errorf("reference: %s differs at entry %d (engine has %d, reference %d): engine %q, reference %q",
				what, i, len(engine), len(ref), e, r)
		}
	}
	return nil
}
