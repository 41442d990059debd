package cylog

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// TestRowSchemaAssignment pins the slot schema the planner assigns: variables
// get slots in first-appearance order (body before head), constants and the
// anonymous variable resolve to sentinels, and the head is pre-resolved.
func TestRowSchemaAssignment(t *testing.T) {
	p := MustParse(`
rel edge(a: int, b: int).
rel tagged(a: int, t: string).
rel out(a: int, b: int, t: string).
out(X, Y, T) :- edge(X, Y), tagged(Y, T), edge(Y, _), X < 5, tagged(X, "seed").
`)
	a := MustAnalyze(p)
	r := p.Rules[0]
	wantVars := []string{"X", "Y", "T"}
	if got := a.RuleVars[r]; len(got) != len(wantVars) {
		t.Fatalf("RuleVars = %v, want %v", got, wantVars)
	} else {
		for i := range wantVars {
			if got[i] != wantVars[i] {
				t.Fatalf("RuleVars = %v, want %v", got, wantVars)
			}
		}
	}
	rs := newRowSchema(r, a.RuleVars[r])
	if rs == nil {
		t.Fatal("newRowSchema returned nil for a 3-variable rule")
	}
	for i, v := range wantVars {
		if rs.slots[v] != i {
			t.Errorf("slot[%s] = %d, want %d", v, rs.slots[v], i)
		}
	}
	// edge(Y, _): first term is slot 1, second is anonymous.
	anonAtom := r.Body[2].(*Atom)
	refs := rs.atoms[anonAtom]
	if refs[0].slot != 1 || refs[1].slot != slotAnon {
		t.Errorf("edge(Y, _) refs = %+v", refs)
	}
	// tagged(X, "seed"): constant second term carries the value.
	constAtom := r.Body[4].(*Atom)
	refs = rs.atoms[constAtom]
	if refs[0].slot != 0 || refs[1].slot != slotConstant || refs[1].konst.AsString() != "seed" {
		t.Errorf(`tagged(X, "seed") refs = %+v`, refs)
	}
	// X < 5: left is slot 0, right a constant.
	comp := r.Body[3].(*Comparison)
	crefs := rs.comps[comp]
	if crefs[0].slot != 0 || crefs[1].slot != slotConstant {
		t.Errorf("comparison refs = %+v", crefs)
	}
	// Head out(X, Y, T) resolves to slots 0, 1, 2.
	for i, want := range []int{0, 1, 2} {
		if rs.head[i].slot != want {
			t.Errorf("head[%d].slot = %d, want %d", i, rs.head[i].slot, want)
		}
	}
}

// TestSetColumnarBindingsToggle covers the toggle contract.
func TestSetColumnarBindingsToggle(t *testing.T) {
	e, err := NewEngine(MustParse(translationProgram))
	if err != nil {
		t.Fatal(err)
	}
	if !e.ColumnarBindingsEnabled() {
		t.Error("columnar bindings should be enabled by default")
	}
	e.SetColumnarBindings(false)
	if e.ColumnarBindingsEnabled() {
		t.Error("SetColumnarBindings(false) not reflected")
	}
	e.SetColumnarBindings(true)
	if !e.ColumnarBindingsEnabled() {
		t.Error("SetColumnarBindings(true) not reflected")
	}
}

// TestEngineColumnarDifferential is the differential quick-check of the
// columnar evaluator: across random edge/node sets, every combination of
// {columnar, map} × {par1, par4} × {indexed, scan} derives a byte-identical
// fixpoint — every relation's facts and every open request id.
func TestEngineColumnarDifferential(t *testing.T) {
	f := func(edges []uint8, nodes []uint8) bool {
		build := func(columnar bool, parallelism int, indexing bool) string {
			e, err := NewEngine(MustParse(differentialProgram))
			if err != nil {
				t.Fatal(err)
			}
			e.SetColumnarBindings(columnar)
			e.SetParallelism(parallelism)
			e.SetIndexing(indexing)
			for i := 0; i+1 < len(edges); i += 2 {
				e.AddFact("edge", int(edges[i]%8), int(edges[i+1]%8))
			}
			for _, n := range nodes {
				e.AddFact("node", int(n%8))
			}
			return fixpointFingerprint(t, e)
		}
		ref := build(false, 1, true)
		for _, columnar := range []bool{true, false} {
			for _, par := range []int{1, 4} {
				for _, indexing := range []bool{true, false} {
					if got := build(columnar, par, indexing); got != ref {
						t.Logf("columnar=%v par=%d indexing=%v diverges:\n%s\nvs reference:\n%s",
							columnar, par, indexing, got, ref)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestEngineColumnarDeltaHashDifferential drives the guarded-reach workload —
// the recursive delta behind a negation barrier, large enough to engage the
// frontier hash — through {columnar, map} × {hashed, linear} and requires
// identical reach sets.
func TestEngineColumnarDeltaHashDifferential(t *testing.T) {
	build := func(columnar, hashing bool) *Engine {
		e, err := NewEngine(MustParse(guardedReachProgram))
		if err != nil {
			t.Fatal(err)
		}
		e.SetParallelism(1)
		e.SetColumnarBindings(columnar)
		e.SetDeltaHashing(hashing)
		for i := 0; i < 400; i++ {
			base := (i / 8) * 9
			e.AddFact("edge", base+i%8, base+i%8+1)
		}
		e.AddFact("blocked", 4)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build(false, false).Facts("reach")
	for _, columnar := range []bool{true, false} {
		for _, hashing := range []bool{true, false} {
			e := build(columnar, hashing)
			if hashing && e.Stats().DeltaHashProbes == 0 {
				t.Errorf("columnar=%v: hashed run recorded no frontier probes", columnar)
			}
			got := e.Facts("reach")
			if len(got) != len(ref) {
				t.Fatalf("columnar=%v hashing=%v: reach = %d facts, want %d", columnar, hashing, len(got), len(ref))
			}
			for i := range ref {
				if !got[i].Equal(ref[i]) {
					t.Fatalf("columnar=%v hashing=%v: reach[%d] = %v, want %v", columnar, hashing, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestEngineColumnarStatsParity runs the transitive-closure workload on both
// binding layouts and requires identical work counters: the columnar path
// must issue exactly the same probes, scans and joins as the map path, not
// just reach the same fixpoint.
func TestEngineColumnarStatsParity(t *testing.T) {
	build := func(columnar bool) Stats {
		e, err := NewEngine(MustParse(`
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`))
		if err != nil {
			t.Fatal(err)
		}
		// One worker on one shard: shard goroutines may race to plan the
		// same variant, which moves lookups between plan-cache hits and
		// misses.
		e.SetParallelism(1)
		e.SetShards(1)
		e.SetColumnarBindings(columnar)
		for i := 0; i < 500; i++ {
			base := (i / 10) * 11
			e.AddFact("edge", base+i%10, base+i%10+1)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	cs, ms := build(true), build(false)
	if cs != ms {
		t.Errorf("stats diverge:\ncolumnar: %+v\nmap:      %+v", cs, ms)
	}
	if cs.JoinedBindings == 0 || cs.IndexHits == 0 {
		t.Errorf("workload should exercise joins and index hits, got %+v", cs)
	}
}

// TestEngineColumnarOpenRequestRounds replays the sequential-collaboration
// workflow on both binding layouts and requires the same requests, in the
// same order, in every crowdsourcing round.
func TestEngineColumnarOpenRequestRounds(t *testing.T) {
	build := func(columnar bool) []string {
		e, err := NewEngine(MustParse(sequentialWorkflowProgram))
		if err != nil {
			t.Fatal(err)
		}
		e.SetColumnarBindings(columnar)
		var ids []string
		_, err = e.RunToFixpointWithOracle(func(r OpenRequest) (map[string]any, bool) {
			ids = append(ids, r.ID)
			switch r.Relation {
			case "translated":
				sid, _ := r.Key()["sid"].AsInt()
				return map[string]any{"text": fmt.Sprintf("T%d", sid)}, true
			case "checked":
				return map[string]any{"ok": true}, true
			}
			return nil, false
		}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(e.Facts("final")); got != 2 {
			t.Fatalf("columnar=%v: final = %d facts, want 2", columnar, got)
		}
		return ids
	}
	rows, maps := build(true), build(false)
	if len(rows) != len(maps) {
		t.Fatalf("request sequences differ: %v vs %v", rows, maps)
	}
	for i := range rows {
		if rows[i] != maps[i] {
			t.Errorf("request[%d]: columnar %q vs map %q", i, rows[i], maps[i])
		}
	}
}

// TestEngineColumnarWideRuleFallback builds a rule wider than maxRowSlots
// variables: the engine must decline a slot schema for it and fall back to
// map bindings, deriving the same facts with columnar bindings nominally
// enabled.
func TestEngineColumnarWideRuleFallback(t *testing.T) {
	arity := maxRowSlots + 3
	var b strings.Builder
	b.WriteString("rel wide(")
	for i := 0; i < arity; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "c%d: int", i)
	}
	b.WriteString(").\nrel first(v: int).\nfirst(V0) :- wide(")
	for i := 0; i < arity; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "V%d", i)
	}
	b.WriteString(").\n")

	e, err := NewEngine(MustParse(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	rule := e.Analysis().Program.Rules[0]
	if e.rowSchemas[rule] != nil {
		t.Fatalf("rule with %d variables should not get a slot schema", arity)
	}
	vals := make([]any, arity)
	for i := range vals {
		vals[i] = i + 100
	}
	if err := e.AddFact("wide", vals...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	facts := e.Facts("first")
	if len(facts) != 1 {
		t.Fatalf("first = %v, want one fact", facts)
	}
	if v, _ := facts[0][0].AsInt(); v != 100 {
		t.Errorf("first = %v, want (100)", facts[0])
	}
}
