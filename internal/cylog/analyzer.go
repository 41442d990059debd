package cylog

import (
	"fmt"
	"sort"
)

// AnalysisError is a semantic error found by Analyze.
type AnalysisError struct {
	Pos Position
	Msg string
}

// Error implements error.
func (e *AnalysisError) Error() string { return fmt.Sprintf("cylog: %s: %s", e.Pos, e.Msg) }

// Analysis is the result of semantic analysis: per-rule metadata and the
// stratification used by the engine.
type Analysis struct {
	Program *Program
	// Strata lists rules grouped into evaluation strata; stratum i may only
	// negate relations fully computed in strata < i.
	Strata [][]*Rule
	// IDB is the set of relation names that appear in some rule head.
	IDB map[string]bool
	// EDB is the set of declared relations never derived by rules (facts,
	// external inputs and open/human relations).
	EDB map[string]bool
	// OpenRelations is the set of declared open (human-evaluated) relations.
	OpenRelations map[string]bool
	// DependsOn maps a head relation to the body relations it references.
	DependsOn map[string][]string
	// NegDependsOn maps a head relation to the body relations it references
	// under negation — the relations whose growth can invalidate previously
	// derived head tuples. The engine works at stratum granularity through
	// StratumNegInputs; this per-head view is the analysis surface for
	// tooling and tests.
	NegDependsOn map[string][]string
	// RuleVars maps each rule to its variable inventory: every named variable
	// appearing in the rule, in first-appearance order (body literals in
	// source order, then the head). The engine turns the inventory into the
	// rule's binding-row slot schema, so the order is part of the engine's
	// deterministic behaviour and must not depend on map iteration.
	RuleVars map[*Rule][]string
	// StratumInputs is the relation→stratum dependency map used by
	// incremental evaluation, stored transposed: entry i holds the relations
	// read by a *positive* body atom of some rule in Strata[i]. Negated atoms
	// are tracked separately in StratumNegInputs. RunIncremental skips
	// stratum i outright when none of the relations in either map changed
	// since the last fixpoint, and recomputes a recursive stratum when one of
	// these lost tuples.
	StratumInputs []map[string]bool
	// StratumNegInputs is the negative twin of StratumInputs: entry i holds
	// the relations read by a *negated* body atom of some rule in Strata[i].
	// A change (insertion or deletion) in one of these relations blocks or
	// unblocks derivations of the stratum, so RunIncremental cannot skip it:
	// it counts the derivations the change gains and loses, or recomputes the
	// stratum when it is recursive.
	StratumNegInputs []map[string]bool
	// RecursiveStrata marks the strata whose heads form a cycle of positive
	// dependencies (a head that depends on itself through rules of its own
	// stratum). Counting cannot retract such support — a cycle keeps its
	// counts after its base is gone — so RunIncremental recomputes a
	// recursive stratum when it loses an input tuple or a negated input
	// changes, and maintains every other stratum by counting.
	RecursiveStrata []bool
}

// ruleVariableInventory collects the named variables of a rule in
// first-appearance order: body literals in source order, then the head. The
// anonymous variable "_" never binds and is excluded.
func ruleVariableInventory(r *Rule) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(vars []string) {
		for _, v := range vars {
			if v == "_" || seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, lit := range r.Body {
		add(lit.Variables())
	}
	add(r.Head.Variables())
	return out
}

// Analyze checks the program for semantic errors and computes the
// stratification. Checks performed:
//
//   - every predicate used in a fact, rule head or rule body is declared,
//     with the right arity;
//   - facts type-check against their declared schema;
//   - rules are *safe*: every variable in the head, in a negated atom, or in
//     a comparison also appears in a positive body atom;
//   - open relations never appear in rule heads (humans, not rules, decide
//     them);
//   - no rule has more than 64 distinct variables (the engine binds them in
//     one 64-bit slot mask);
//   - negation is stratified (no recursion through negation).
func Analyze(p *Program) (*Analysis, error) {
	a := &Analysis{
		Program:       p,
		IDB:           make(map[string]bool),
		EDB:           make(map[string]bool),
		OpenRelations: make(map[string]bool),
		DependsOn:     make(map[string][]string),
		NegDependsOn:  make(map[string][]string),
		RuleVars:      make(map[*Rule][]string, len(p.Rules)),
	}
	decls := make(map[string]*Declaration, len(p.Declarations))
	for _, d := range p.Declarations {
		decls[d.Name] = d
		if d.Open {
			a.OpenRelations[d.Name] = true
		}
	}

	// Facts must reference declared relations with matching arity and types.
	for _, f := range p.Facts {
		d, ok := decls[f.Relation]
		if !ok {
			return nil, &AnalysisError{f.Pos, fmt.Sprintf("fact references undeclared relation %q", f.Relation)}
		}
		if len(f.Values) != len(d.Columns) {
			return nil, &AnalysisError{f.Pos, fmt.Sprintf("fact %s has %d values, relation declares %d columns", f.Relation, len(f.Values), len(d.Columns))}
		}
		if _, err := d.Schema().Coerce(f.Values); err != nil {
			return nil, &AnalysisError{f.Pos, fmt.Sprintf("fact %s does not match schema: %v", f.Relation, err)}
		}
	}

	// Rules: declared predicates, arity, safety, no open heads.
	for _, r := range p.Rules {
		hd, ok := decls[r.Head.Predicate]
		if !ok {
			return nil, &AnalysisError{r.Pos, fmt.Sprintf("rule head references undeclared relation %q", r.Head.Predicate)}
		}
		if len(r.Head.Terms) != len(hd.Columns) {
			return nil, &AnalysisError{r.Pos, fmt.Sprintf("rule head %s has %d terms, relation declares %d columns", r.Head.Predicate, len(r.Head.Terms), len(hd.Columns))}
		}
		if hd.Open {
			return nil, &AnalysisError{r.Pos, fmt.Sprintf("open relation %q cannot be derived by a rule; open relations are evaluated by humans", r.Head.Predicate)}
		}
		if r.Head.Negated {
			return nil, &AnalysisError{r.Pos, "rule head cannot be negated"}
		}
		a.IDB[r.Head.Predicate] = true

		positive := make(map[string]bool)
		var deps, negDeps []string
		hasPositive := false
		for _, lit := range r.Body {
			atom, isAtom := lit.(*Atom)
			if !isAtom {
				continue
			}
			bd, ok := decls[atom.Predicate]
			if !ok {
				return nil, &AnalysisError{atom.Pos, fmt.Sprintf("rule body references undeclared relation %q", atom.Predicate)}
			}
			if len(atom.Terms) != len(bd.Columns) {
				return nil, &AnalysisError{atom.Pos, fmt.Sprintf("atom %s has %d terms, relation declares %d columns", atom.Predicate, len(atom.Terms), len(bd.Columns))}
			}
			deps = append(deps, atom.Predicate)
			if !atom.Negated {
				hasPositive = true
				for _, v := range atom.Variables() {
					positive[v] = true
				}
			} else {
				negDeps = append(negDeps, atom.Predicate)
			}
		}
		if !hasPositive {
			return nil, &AnalysisError{r.Pos, fmt.Sprintf("rule for %s has no positive body atom", r.Head.Predicate)}
		}
		// Safety.
		check := func(vars []string, where string, pos Position) error {
			for _, v := range vars {
				if v == "_" {
					if where == "the head" {
						return &AnalysisError{pos, "anonymous variable _ cannot appear in the head"}
					}
					continue
				}
				if !positive[v] {
					return &AnalysisError{pos, fmt.Sprintf("unsafe rule: variable %s in %s does not appear in a positive body atom", v, where)}
				}
			}
			return nil
		}
		if err := check(r.Head.Variables(), "the head", r.Pos); err != nil {
			return nil, err
		}
		for _, lit := range r.Body {
			switch l := lit.(type) {
			case *Atom:
				if l.Negated {
					if err := check(l.Variables(), "a negated atom", l.Pos); err != nil {
						return nil, err
					}
				}
			case *Comparison:
				if err := check(l.Variables(), "a comparison", l.Pos); err != nil {
					return nil, err
				}
			}
		}
		vars := ruleVariableInventory(r)
		if len(vars) > maxRowSlots {
			return nil, &AnalysisError{r.Pos, fmt.Sprintf("rule for %s has %d variables; at most %d are supported", r.Head.Predicate, len(vars), maxRowSlots)}
		}
		a.DependsOn[r.Head.Predicate] = append(a.DependsOn[r.Head.Predicate], deps...)
		a.NegDependsOn[r.Head.Predicate] = append(a.NegDependsOn[r.Head.Predicate], negDeps...)
		a.RuleVars[r] = vars
	}

	// EDB = declared relations not derived by any rule.
	for name := range decls {
		if !a.IDB[name] {
			a.EDB[name] = true
		}
	}

	strata, err := stratify(p, a.IDB)
	if err != nil {
		return nil, err
	}
	a.Strata = strata
	a.StratumInputs = stratumInputs(strata, false)
	a.StratumNegInputs = stratumInputs(strata, true)
	a.RecursiveStrata = make([]bool, len(strata))
	for i, rules := range strata {
		a.RecursiveStrata[i] = recursive(rules)
	}
	return a, nil
}

// recursive reports whether the rules of one stratum form a cycle of positive
// dependencies among their heads: a depth-first search over the edges head →
// in-stratum body relation that meets a relation still on its path.
func recursive(rules []*Rule) bool {
	deps := make(map[string][]string)
	for _, r := range rules {
		deps[r.Head.Predicate] = nil
	}
	for _, r := range rules {
		for _, lit := range r.Body {
			if atom, ok := lit.(*Atom); ok && !atom.Negated {
				if _, inStratum := deps[atom.Predicate]; inStratum {
					deps[r.Head.Predicate] = append(deps[r.Head.Predicate], atom.Predicate)
				}
			}
		}
	}
	const (
		onPath = 1
		done   = 2
	)
	state := make(map[string]int, len(deps))
	var cyclic func(rel string) bool
	cyclic = func(rel string) bool {
		switch state[rel] {
		case onPath:
			return true
		case done:
			return false
		}
		state[rel] = onPath
		for _, d := range deps[rel] {
			if cyclic(d) {
				return true
			}
		}
		state[rel] = done
		return false
	}
	for rel := range deps {
		if cyclic(rel) {
			return true
		}
	}
	return false
}

// stratumInputs computes, per stratum, the set of relations its rules read
// through positive (negated == false) or negated (negated == true) body atoms
// (see Analysis.StratumInputs and Analysis.StratumNegInputs).
func stratumInputs(strata [][]*Rule, negated bool) []map[string]bool {
	out := make([]map[string]bool, len(strata))
	for i, rules := range strata {
		inputs := make(map[string]bool)
		for _, r := range rules {
			for _, lit := range r.Body {
				if atom, ok := lit.(*Atom); ok && atom.Negated == negated {
					inputs[atom.Predicate] = true
				}
			}
		}
		out[i] = inputs
	}
	return out
}

// stratify computes a stratification of the rules: a partition into ordered
// strata such that a rule negating relation R is placed strictly above every
// rule deriving R, and a rule positively depending on R is placed at or above
// R's stratum. It returns an error when the program recurses through
// negation.
func stratify(p *Program, idb map[string]bool) ([][]*Rule, error) {
	// Compute a stratum number per IDB relation with the classic iterative
	// algorithm.
	stratum := make(map[string]int)
	for name := range idb {
		stratum[name] = 0
	}
	relations := make([]string, 0, len(idb))
	for name := range idb {
		relations = append(relations, name)
	}
	sort.Strings(relations)

	maxStratum := len(idb) + 1
	changed := true
	for iter := 0; changed; iter++ {
		if iter > len(idb)*len(idb)+len(p.Rules)+2 {
			return nil, &AnalysisError{Msg: "program is not stratifiable (recursion through negation)"}
		}
		changed = false
		for _, r := range p.Rules {
			hs := stratum[r.Head.Predicate]
			for _, lit := range r.Body {
				atom, ok := lit.(*Atom)
				if !ok || !idb[atom.Predicate] {
					continue
				}
				bs := stratum[atom.Predicate]
				var need int
				if atom.Negated {
					need = bs + 1
				} else {
					need = bs
				}
				if hs < need {
					hs = need
					if hs > maxStratum {
						return nil, &AnalysisError{Pos: r.Pos, Msg: "program is not stratifiable (recursion through negation)"}
					}
					stratum[r.Head.Predicate] = hs
					changed = true
				}
			}
		}
	}

	// Group rules by their head's stratum, preserving program order inside a
	// stratum.
	maxS := 0
	for _, s := range stratum {
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]*Rule, maxS+1)
	for _, r := range p.Rules {
		s := stratum[r.Head.Predicate]
		out[s] = append(out[s], r)
	}
	// Drop empty strata.
	var packed [][]*Rule
	for _, s := range out {
		if len(s) > 0 {
			packed = append(packed, s)
		}
	}
	if packed == nil {
		packed = [][]*Rule{}
	}
	return packed, nil
}
