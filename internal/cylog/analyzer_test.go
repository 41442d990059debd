package cylog

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestAnalyzeTranslationProgram(t *testing.T) {
	p := MustParse(translationProgram)
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IDB["eligible"] || !a.IDB["final"] {
		t.Errorf("IDB = %v", a.IDB)
	}
	if !a.EDB["sentence"] || !a.EDB["worker"] || !a.EDB["translated"] {
		t.Errorf("EDB = %v", a.EDB)
	}
	if !a.OpenRelations["translated"] || !a.OpenRelations["checked"] || a.OpenRelations["sentence"] {
		t.Errorf("OpenRelations = %v", a.OpenRelations)
	}
	if len(a.Strata) != 1 {
		t.Errorf("strata = %d", len(a.Strata))
	}
	if len(a.DependsOn["final"]) != 2 {
		t.Errorf("DependsOn[final] = %v", a.DependsOn["final"])
	}
	if len(a.Program.Rules) != 2 {
		t.Errorf("rules = %d", len(a.Program.Rules))
	}
}

func TestAnalyzeStratifiedNegation(t *testing.T) {
	p := MustParse(`
rel worker(w: string).
rel assigned(w: string).
rel idle(w: string).
idle(W) :- worker(W), !assigned(W).
assigned(W) :- worker(W), busy(W).
rel busy(w: string).
`)
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Strata) != 2 {
		t.Fatalf("strata = %d, want 2", len(a.Strata))
	}
	// assigned must be computed before idle.
	if a.Strata[0][0].Head.Predicate != "assigned" || a.Strata[1][0].Head.Predicate != "idle" {
		t.Errorf("stratum order wrong: %v then %v", a.Strata[0][0].Head.Predicate, a.Strata[1][0].Head.Predicate)
	}
}

func TestAnalyzeRecursionThroughNegationRejected(t *testing.T) {
	p := MustParse(`
rel p(x: int).
rel q(x: int).
rel base(x: int).
p(X) :- base(X), !q(X).
q(X) :- base(X), !p(X).
`)
	if _, err := Analyze(p); err == nil {
		t.Error("recursion through negation should be rejected")
	}
}

func TestAnalyzeRecursionWithoutNegationAllowed(t *testing.T) {
	p := MustParse(`
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`)
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Strata) != 1 || len(a.Strata[0]) != 2 {
		t.Errorf("strata = %v", a.Strata)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undeclared fact relation", `rel a(x: int). b(1).`},
		{"fact arity", `rel a(x: int). a(1, 2).`},
		{"fact type", `rel a(x: int). a("not a number").`},
		{"undeclared head", `rel a(x: int). b(X) :- a(X).`},
		{"undeclared body", `rel a(x: int). a(X) :- b(X).`},
		{"head arity", `rel a(x: int). rel b(x: int, y: int). b(X) :- a(X).`},
		{"body arity", `rel a(x: int). rel b(x: int). b(X) :- a(X, Y).`},
		{"open head", `rel a(x: int). open rel h(x: int). h(X) :- a(X).`},
		{"unsafe head var", `rel a(x: int). rel b(x: int, y: int). b(X, Y) :- a(X).`},
		{"unsafe negation var", `rel a(x: int). rel b(x: int). rel c(x: int). c(X) :- a(X), !b(Y).`},
		{"unsafe comparison var", `rel a(x: int). rel c(x: int). c(X) :- a(X), Y > 3.`},
		{"no positive atom", `rel a(x: int). rel c(x: int). c(3) :- !a(3).`},
		{"anonymous in head", `rel a(x: int). rel c(x: int). c(_) :- a(_).`},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: unexpected parse error: %v", c.name, err)
		}
		if _, err := Analyze(p); err == nil {
			t.Errorf("%s: expected analysis error", c.name)
		}
	}
}

// wideRuleProgram declares an n-column relation and a rule whose body binds
// one distinct variable per column.
func wideRuleProgram(n int) string {
	var cols, vars []string
	for i := 0; i < n; i++ {
		cols = append(cols, fmt.Sprintf("c%d: int", i))
		vars = append(vars, fmt.Sprintf("V%d", i))
	}
	return fmt.Sprintf("rel wide(%s).\nrel first(v: int).\nfirst(V0) :- wide(%s).\n",
		strings.Join(cols, ", "), strings.Join(vars, ", "))
}

// TestAnalyzeRejectsWideRules pins the variable limit: the engine binds a
// rule's variables in one 64-bit slot mask, so a 64-variable rule analyzes
// and evaluates, and a 65-variable rule is an analysis error.
func TestAnalyzeRejectsWideRules(t *testing.T) {
	e, err := NewEngine(MustParse(wideRuleProgram(maxRowSlots)))
	if err != nil {
		t.Fatalf("%d-variable rule: %v", maxRowSlots, err)
	}
	vals := make([]any, maxRowSlots)
	for i := range vals {
		vals[i] = i + 100
	}
	if err := e.AddFact("wide", vals...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if facts := e.Facts("first"); len(facts) != 1 || facts[0][0].String() != "100" {
		t.Errorf("first = %v, want (100)", facts)
	}
	_, err = Analyze(MustParse(wideRuleProgram(maxRowSlots + 1)))
	var ae *AnalysisError
	if !errors.As(err, &ae) || !strings.Contains(ae.Msg, "65 variables") {
		t.Errorf("%d-variable rule: err = %v, want an AnalysisError", maxRowSlots+1, err)
	}
}

func TestAnalyzeNegationOverEDBStaysSingleStratum(t *testing.T) {
	p := MustParse(`
rel worker(w: string).
rel banned(w: string).
rel ok(w: string).
ok(W) :- worker(W), !banned(W).
`)
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Strata) != 1 {
		t.Errorf("negation over EDB should not add strata, got %d", len(a.Strata))
	}
}

// TestAnalyzeStratumInputs pins the relation→stratum dependency map behind
// incremental stratum skipping: per stratum, exactly the relations read by a
// positive body atom — negated atoms excluded, because in an insert-only
// store their growth can only suppress derivations.
func TestAnalyzeStratumInputs(t *testing.T) {
	a := MustAnalyze(MustParse(incrementalProgram))
	if len(a.Strata) != 3 {
		t.Fatalf("strata = %d, want 3", len(a.Strata))
	}
	if len(a.StratumInputs) != len(a.Strata) {
		t.Fatalf("StratumInputs has %d entries for %d strata", len(a.StratumInputs), len(a.Strata))
	}
	want := []map[string]bool{
		{"edge": true, "reach": true, "node": true, "label": true},
		{"node": true, "endpoint": true}, // labeled/reach/source appear only negated
		{"labeled": true},
	}
	for i, inputs := range a.StratumInputs {
		if len(inputs) != len(want[i]) {
			t.Errorf("StratumInputs[%d] = %v, want %v", i, inputs, want[i])
			continue
		}
		for rel := range want[i] {
			if !inputs[rel] {
				t.Errorf("StratumInputs[%d] missing %q: %v", i, rel, inputs)
			}
		}
	}
}

// TestAnalyzeStratumNegInputs pins the negative twin of the dependency map:
// per stratum, exactly the relations read by a negated body atom — the
// relations whose changes block or unblock the stratum's derivations — plus
// the per-head NegDependsOn index.
func TestAnalyzeStratumNegInputs(t *testing.T) {
	a := MustAnalyze(MustParse(incrementalProgram))
	if len(a.StratumNegInputs) != len(a.Strata) {
		t.Fatalf("StratumNegInputs has %d entries for %d strata", len(a.StratumNegInputs), len(a.Strata))
	}
	want := []map[string]bool{
		{"edge": true}, // endpoint(N) :- node(N), !edge(N, _)
		{"labeled": true, "reach": true, "source": true},
		{"lonely": true},
	}
	for i, inputs := range a.StratumNegInputs {
		if len(inputs) != len(want[i]) {
			t.Errorf("StratumNegInputs[%d] = %v, want %v", i, inputs, want[i])
			continue
		}
		for rel := range want[i] {
			if !inputs[rel] {
				t.Errorf("StratumNegInputs[%d] missing %q: %v", i, rel, inputs)
			}
		}
	}
	if deps := a.NegDependsOn["unlabeled"]; len(deps) != 1 || deps[0] != "labeled" {
		t.Errorf("NegDependsOn[unlabeled] = %v, want [labeled]", deps)
	}
	if deps := a.NegDependsOn["labeled"]; len(deps) != 0 {
		t.Errorf("NegDependsOn[labeled] = %v, want none", deps)
	}
}

// TestAnalyzeRecursiveStrata pins which strata the engine must recompute
// instead of counting: those whose heads depend positively on themselves,
// directly or through other heads of the stratum. Negation and dependencies
// on lower strata never make a stratum recursive.
func TestAnalyzeRecursiveStrata(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []bool
	}{
		{"chain", `rel a(x: int). rel b(x: int). rel c(x: int).
b(X) :- a(X). c(X) :- b(X).`, []bool{false}},
		{"self loop", `rel e(x: int, y: int). rel r(x: int, y: int).
r(X, Y) :- e(X, Y). r(X, Z) :- r(X, Y), e(Y, Z).`, []bool{true}},
		{"mutual", `rel e(x: int). rel p(x: int). rel q(x: int).
p(X) :- e(X). p(X) :- q(X). q(X) :- p(X).`, []bool{true}},
		{"negation above recursion", `rel e(x: int, y: int). rel n(x: int). rel r(x: int, y: int). rel u(x: int).
r(X, Y) :- e(X, Y). r(X, Z) :- r(X, Y), e(Y, Z). u(N) :- n(N), !r(_, N).`, []bool{true, false}},
	}
	for _, c := range cases {
		a := MustAnalyze(MustParse(c.src))
		if fmt.Sprint(a.RecursiveStrata) != fmt.Sprint(c.want) {
			t.Errorf("%s: RecursiveStrata = %v, want %v", c.name, a.RecursiveStrata, c.want)
		}
	}
	a := MustAnalyze(MustParse(incrementalProgram))
	if fmt.Sprint(a.RecursiveStrata) != "[true false false]" {
		t.Errorf("incrementalProgram: RecursiveStrata = %v, want [true false false]", a.RecursiveStrata)
	}
}

// MustAnalyze is Analyze but panics on error.
func MustAnalyze(p *Program) *Analysis {
	a, err := Analyze(p)
	if err != nil {
		panic(err)
	}
	return a
}

func TestMustAnalyzePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAnalyze should panic on a bad program")
		}
	}()
	MustAnalyze(MustParse(`rel a(x: int). b(X) :- a(X).`))
}

func TestAnalyzeEmptyProgram(t *testing.T) {
	a, err := Analyze(MustParse(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Strata) != 0 || len(a.IDB) != 0 {
		t.Errorf("empty program analysis = %+v", a)
	}
}
