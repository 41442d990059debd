package cylog

import "testing"

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
