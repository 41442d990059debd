package reference

import (
	"fmt"
	"strings"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// tuples builds a base-fact list from rows of Go values.
func tuples(rows ...[]any) []relstore.Tuple {
	out := make([]relstore.Tuple, len(rows))
	for i, r := range rows {
		out[i] = relstore.NewTuple(r...)
	}
	return out
}

func row(vals ...any) []any { return vals }

func evaluate(t *testing.T, src string, base map[string][]relstore.Tuple) *Fixpoint {
	t.Helper()
	fp, err := Evaluate(cylog.MustParse(src), base)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// wantRelation compares a relation with the expected rows, written as the
// tuples' String renderings in sorted order.
func wantRelation(t *testing.T, fp *Fixpoint, name string, want ...string) {
	t.Helper()
	got := tupleLines(fp.Relations[name])
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestTransitiveClosure(t *testing.T) {
	fp := evaluate(t, `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`, map[string][]relstore.Tuple{"edge": tuples(row(1, 2), row(2, 3), row(3, 4), row(5, 5))})
	wantRelation(t, fp, "reach", "(1, 2)", "(1, 3)", "(1, 4)", "(2, 3)", "(2, 4)", "(3, 4)", "(5, 5)")
	if len(fp.Requests) != 0 {
		t.Errorf("requests = %v, want none", fp.Requests)
	}
}

func TestStratifiedNegationOverDerived(t *testing.T) {
	fp := evaluate(t, `
rel task(t: string).
rel done(t: string).
rel completed(t: string).
rel pending(t: string).
rel edge(a: string, b: string).
rel reach(a: string, b: string).
rel unreached(t: string).
task("t1").
task("t2").
task("t3").
done("t1").
edge("t1", "t2").
completed(T) :- task(T), done(T).
pending(T) :- task(T), !completed(T).
reach(X, Y) :- edge(X, Y).
unreached(T) :- pending(T), !reach(_, T).
`, nil)
	wantRelation(t, fp, "completed", `("t1")`)
	wantRelation(t, fp, "pending", `("t2")`, `("t3")`)
	// The anonymous variable in the negated atom matches any source.
	wantRelation(t, fp, "unreached", `("t3")`)
}

func TestComparisonsWithAnonymousVariables(t *testing.T) {
	fp := evaluate(t, `
rel score(w: string, s: float).
rel good(w: string).
rel others(w: string).
rel early(w: string).
score("a", 0.9).
score("b", 0.4).
score("c", 0.7).
good(W) :- score(W, S), S >= 0.7.
others(W) :- score(W, _), W != "b", score(_, _).
early(W) :- W = "a", score(W, _).
`, nil)
	wantRelation(t, fp, "good", `("a")`, `("c")`)
	wantRelation(t, fp, "others", `("a")`, `("c")`)
	// A comparison written before its variable is bound drops the binding.
	wantRelation(t, fp, "early")
}

func TestDeclaredAndDefaultKeyRequests(t *testing.T) {
	fp := evaluate(t, `
rel sentence(sid: int, text: string).
open rel translated(sid: int, text: string) key(sid) asks "Translate" scheme "sequential".
rel pair(a: int, b: int).
open rel judge(a: int, b: int, ok: bool) asks "Judge".
rel need(sid: int).
rel judged(a: int, b: int).
rel unkeyed(t: string).
need(S) :- sentence(S, _), translated(S, _).
judged(A, B) :- pair(A, B), judge(A, B, _).
unkeyed(T) :- translated(_, T), judge(_, _, _).
`, map[string][]relstore.Tuple{
		"sentence":   tuples(row(1, "a"), row(2, "b")),
		"translated": tuples(row(1, "A")),
		"pair":       tuples(row(1, 2), row(3, 4)),
		"judge":      tuples(row(1, 2, true)),
	})
	wantRelation(t, fp, "need", "(1)")
	wantRelation(t, fp, "judged", "(1, 2)")
	if len(fp.Requests) != 2 {
		t.Fatalf("requests = %v, want translated 2 and judge (3, 4)", fp.Requests)
	}
	j, tr := fp.Requests[0], fp.Requests[1]
	if tr.ID != "translated|2" || fmt.Sprint(tr.KeyColumns) != "[sid]" || fmt.Sprint(tr.OpenColumns) != "[text]" ||
		tr.Prompt != "Translate" || tr.Scheme != "sequential" {
		t.Errorf("declared-key request = %+v", tr)
	}
	if j.ID != "judge|3\x1f4" || fmt.Sprint(j.KeyColumns) != "[a b]" || fmt.Sprint(j.OpenColumns) != "[ok]" {
		t.Errorf("default-key request = %+v", j)
	}
}

func TestDuplicateKeyColumns(t *testing.T) {
	fp := evaluate(t, `
rel item(id: int).
open rel rating(id: int, score: int) key(id, id) asks "Rate this item".
rel rated(id: int, score: int).
item(1).
item(2).
rated(I, S) :- item(I), rating(I, S).
`, map[string][]relstore.Tuple{"rating": tuples(row(1, 5))})
	wantRelation(t, fp, "rated", "(1, 5)")
	if len(fp.Requests) != 1 || fp.Requests[0].ID != "rating|2\x1f2" {
		t.Fatalf("requests = %v, want only item 2", fp.Requests)
	}
	if fmt.Sprint(fp.Requests[0].OpenColumns) != "[score]" {
		t.Errorf("open columns = %v", fp.Requests[0].OpenColumns)
	}
}

func TestEvaluateErrors(t *testing.T) {
	const src = `
rel a(x: int).
rel b(x: int).
b(X) :- a(X).
`
	for name, base := range map[string]map[string][]relstore.Tuple{
		"undeclared": {"c": tuples(row(1))},
		"derived":    {"b": tuples(row(1))},
		"schema":     {"a": tuples(row("not an int"))},
	} {
		if _, err := Evaluate(cylog.MustParse(src), base); err == nil {
			t.Errorf("%s base: want an error", name)
		}
	}
	bad := &cylog.Program{Rules: cylog.MustParse(src).Rules}
	if _, err := Evaluate(bad, nil); err == nil {
		t.Error("undeclared relations: want an analysis error")
	}
	if _, err := Evaluate(cylog.MustParse(`rel a(x: int). rel b(x: int). a(1). b("s") :- a(_).`), nil); err == nil {
		t.Error("ill-typed head: want an error")
	}
}

func TestCheckAgainstEngine(t *testing.T) {
	e, err := cylog.NewEngine(cylog.MustParse(`
rel item(id: int).
open rel label(id: int, ok: bool) key(id) asks "Is this item acceptable?".
rel labeled(id: int).
rel flagged(id: int).
labeled(I) :- item(I), label(I, true).
flagged(I) :- item(I), !labeled(I).
`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := e.AddFact("item", i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.AnswerFact("label", 2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	if err := Check(e, BaseFacts(e)); err != nil {
		t.Fatal(err)
	}
	// A base fact the engine never saw shows up as a difference.
	base := BaseFacts(e)
	base["item"] = append(base["item"], relstore.NewTuple(5))
	if err := Check(e, base); err == nil || !strings.Contains(err.Error(), "relation item") {
		t.Errorf("Check with an extra item = %v, want an item difference", err)
	}
	if err := Check(e, map[string][]relstore.Tuple{"labeled": nil}); err == nil {
		t.Error("Check with an invalid base should fail")
	}
}

// TestDerivations pins the support counts over a hand-checked fixpoint: a
// tuple derived by two rules, or by one rule through two edges, counts each
// instantiation; a negation passes each binding once; a request counts every
// prefix binding reaching the open atom, and a key with a fact counts none.
func TestDerivations(t *testing.T) {
	c, err := Derivations(cylog.MustParse(`
rel edge(a: int, b: int).
rel node(n: int).
rel reach(a: int, b: int).
rel h(n: int).
rel unreached(n: int).
open rel label(n: int, tag: string) key(n) asks "label".
rel labeled(n: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
h(X) :- node(X), edge(X, _).
unreached(N) :- node(N), !reach(_, N).
labeled(N) :- node(N), edge(N, _), label(N, _).
`), map[string][]relstore.Tuple{
		"edge":  tuples(row(1, 2), row(2, 3), row(1, 3)),
		"node":  tuples(row(1), row(2), row(3), row(4)),
		"label": tuples(row(2, "x")),
	})
	if err != nil {
		t.Fatal(err)
	}
	key := func(vals ...any) string { return relstore.NewTuple(vals...).Key() }
	want := map[string]map[string]int{
		"reach":     {key(1, 2): 1, key(2, 3): 1, key(1, 3): 2},
		"h":         {key(1): 2, key(2): 1},
		"unreached": {key(1): 1, key(4): 1},
		"labeled":   {key(2): 1},
	}
	if fmt.Sprint(c.Tuples) != fmt.Sprint(want) {
		t.Errorf("Tuples = %v, want %v", c.Tuples, want)
	}
	if fmt.Sprint(c.Requests) != fmt.Sprint(map[string]int{"label|1": 2}) {
		t.Errorf("Requests = %v, want label|1 from two bindings", c.Requests)
	}
	if _, err := Derivations(cylog.MustParse(`rel a(x: int). rel b(x: int). b(X) :- a(X).`),
		map[string][]relstore.Tuple{"b": tuples(row(1))}); err == nil {
		t.Error("base facts for a derived relation should fail")
	}
}
