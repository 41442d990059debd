package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func workerSchema() *Schema {
	return MustSchema("id:int", "name:string", "lang:string", "skill:float")
}

func newWorkerRelation(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation("worker", workerSchema())
	r.MustInsert(1, "alice", "en", 0.9)
	r.MustInsert(2, "bob", "en", 0.7)
	r.MustInsert(3, "carol", "ja", 0.8)
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := workerSchema()
	if s.Arity() != 4 {
		t.Fatalf("Arity = %d, want 4", s.Arity())
	}
	if s.ColumnIndex("lang") != 2 {
		t.Errorf("ColumnIndex(lang) = %d", s.ColumnIndex("lang"))
	}
	if s.ColumnIndex("missing") != -1 {
		t.Errorf("ColumnIndex(missing) = %d", s.ColumnIndex("missing"))
	}
	if !s.HasColumn("name") || s.HasColumn("nope") {
		t.Error("HasColumn misbehaves")
	}
	if got := s.Names(); strings.Join(got, ",") != "id,name,lang,skill" {
		t.Errorf("Names() = %v", got)
	}
	if !s.Equal(workerSchema()) {
		t.Error("identical schemas should be Equal")
	}
	if s.Equal(MustSchema("id:int")) {
		t.Error("different schemas should not be Equal")
	}
	if !strings.Contains(s.String(), "skill float") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate column name")
		}
	}()
	NewSchema(Column{Name: "a", Type: TypeInt}, Column{Name: "a", Type: TypeInt})
}

func TestSchemaValidateAndCoerce(t *testing.T) {
	s := workerSchema()
	good := NewTuple(1, "alice", "en", 0.5)
	if err := s.Validate(good); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	if err := s.Validate(NewTuple(1, "x")); err == nil {
		t.Error("Validate should reject wrong arity")
	}
	coerced, err := s.Coerce(NewTuple("7", "alice", "en", "0.25"))
	if err != nil {
		t.Fatalf("Coerce: %v", err)
	}
	if n, _ := coerced[0].AsInt(); n != 7 {
		t.Errorf("coerced id = %v", coerced[0])
	}
	if f, _ := coerced[3].AsFloat(); f != 0.25 {
		t.Errorf("coerced skill = %v", coerced[3])
	}
	if _, err := s.Coerce(NewTuple("abc", "x", "en", 0.1)); err == nil {
		t.Error("Coerce should fail on non-numeric id")
	}
	// NULLs pass through untouched.
	withNull, err := s.Coerce(Tuple{Null(), String("x"), Null(), Null()})
	if err != nil {
		t.Fatalf("Coerce with nulls: %v", err)
	}
	if !withNull[0].IsNull() || !withNull[3].IsNull() {
		t.Error("NULL values should be preserved")
	}
}

func TestTupleBasics(t *testing.T) {
	a := NewTuple(1, "x", 2.5)
	b := NewTuple(1, "x", 2.5)
	c := NewTuple(1, "y", 2.5)
	if !a.Equal(b) || a.Equal(c) {
		t.Error("tuple equality misbehaves")
	}
	if a.Key() != b.Key() {
		t.Error("equal tuples should share a key")
	}
	if a.Key() == c.Key() {
		t.Error("different tuples should have different keys")
	}
	if a.Compare(c) >= 0 {
		t.Error("expected a < c")
	}
	clone := a.Clone()
	clone[0] = Int(99)
	if !a[0].Equal(Int(1)) {
		t.Error("Clone should not share backing storage")
	}
	if got := a.Project(2, 0); !got.Equal(NewTuple(2.5, 1)) {
		t.Errorf("Project = %v", got)
	}
	if !strings.HasPrefix(a.String(), "(1, ") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestTupleKeyNumericCanonicalisation(t *testing.T) {
	// Int(3) and Float(3.0) are Equal, so their keys must match for set
	// semantics to hold.
	a := Tuple{Int(3)}
	b := Tuple{Float(3.0)}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestRelationInsertSetSemantics(t *testing.T) {
	r := newWorkerRelation(t)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	ok, err := r.Insert(NewTuple(1, "alice", "en", 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("duplicate insert should report false")
	}
	if r.Len() != 3 {
		t.Errorf("Len after duplicate insert = %d", r.Len())
	}
	v0 := r.Version()
	r.MustInsert(4, "dave", "fr", 0.6)
	if r.Version() <= v0 {
		t.Error("Version should increase after insert")
	}
}

func TestRelationInsertSchemaMismatch(t *testing.T) {
	r := NewRelation("t", MustSchema("id:int"))
	if _, err := r.Insert(NewTuple("not-an-int")); err == nil {
		t.Error("expected schema error")
	}
	if _, err := r.Insert(NewTuple(1, 2)); err == nil {
		t.Error("expected arity error")
	}
}

// TestRelationInsertAll pins InsertAll's count and its stop at the first
// schema error: duplicates are not counted, and the tuples before the bad one
// stay inserted.
func TestRelationInsertAll(t *testing.T) {
	r := NewRelation("t", MustSchema("id:int"))
	r.MustInsert(1)
	added, err := r.InsertAll([]Tuple{NewTuple(1), NewTuple(2), NewTuple(3), NewTuple(2)})
	if err != nil || added != 2 {
		t.Fatalf("InsertAll = %d, %v; want 2 new tuples", added, err)
	}
	added, err = r.InsertAll([]Tuple{NewTuple(4), NewTuple("not-an-int"), NewTuple(5)})
	if err == nil || added != 1 {
		t.Fatalf("InsertAll = %d, %v; want 1 new tuple, then the schema error", added, err)
	}
	if got := r.String(); got != "t(id int) [4 tuples]" {
		t.Errorf("String() = %q", got)
	}
}

func TestRelationDelete(t *testing.T) {
	r := newWorkerRelation(t)
	ok, err := r.Delete(NewTuple(2, "bob", "en", 0.7))
	if err != nil || !ok {
		t.Fatalf("Delete = %v,%v", ok, err)
	}
	if r.Len() != 2 || r.Contains(NewTuple(2, "bob", "en", 0.7)) {
		t.Error("tuple still present after Delete")
	}
	ok, _ = r.Delete(NewTuple(2, "bob", "en", 0.7))
	if ok {
		t.Error("second delete should report false")
	}
}

func TestRelationDeleteWhere(t *testing.T) {
	r := newWorkerRelation(t)
	n := r.DeleteWhere(func(t Tuple) bool { return t[2].AsString() == "en" })
	if n != 2 || r.Len() != 1 {
		t.Errorf("DeleteWhere removed %d, len %d", n, r.Len())
	}
}

func TestRelationSelectEqWithAndWithoutIndex(t *testing.T) {
	r := newWorkerRelation(t)
	noIdx := r.SelectEq("lang", String("en"))
	if len(noIdx) != 2 {
		t.Fatalf("SelectEq without index = %d rows", len(noIdx))
	}
	if err := r.CreateIndex("lang"); err != nil {
		t.Fatal(err)
	}
	if !r.HasIndex("lang") {
		t.Error("HasIndex(lang) = false after CreateIndex")
	}
	withIdx := r.SelectEq("lang", String("en"))
	if len(withIdx) != len(noIdx) {
		t.Fatalf("indexed result %d != scan result %d", len(withIdx), len(noIdx))
	}
	for i := range withIdx {
		if !withIdx[i].Equal(noIdx[i]) {
			t.Errorf("row %d differs: %v vs %v", i, withIdx[i], noIdx[i])
		}
	}
	// Index stays correct across inserts and deletes.
	r.MustInsert(5, "eve", "en", 0.5)
	r.Delete(NewTuple(1, "alice", "en", 0.9))
	got := r.SelectEq("lang", String("en"))
	if len(got) != 2 {
		t.Errorf("after mutations, indexed SelectEq = %d rows, want 2", len(got))
	}
	if r.SelectEq("missing", Int(1)) != nil {
		t.Error("SelectEq on missing column should return nil")
	}
}

func TestRelationCreateIndexUnknownColumn(t *testing.T) {
	r := newWorkerRelation(t)
	if err := r.CreateIndex("nope"); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestRelationAllDeterministicOrder(t *testing.T) {
	r := newWorkerRelation(t)
	a := r.All()
	b := r.All()
	if len(a) != 3 {
		t.Fatalf("All = %d rows", len(a))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Error("All() order is not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Compare(a[i]) > 0 {
			t.Error("All() is not sorted")
		}
	}
}

func TestRelationScanEarlyStop(t *testing.T) {
	r := newWorkerRelation(t)
	count := 0
	r.Scan(func(Tuple) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("Scan visited %d rows after returning false", count)
	}
}

func TestRelationSelectAndProject(t *testing.T) {
	r := newWorkerRelation(t)
	highSkill := r.Select(func(t Tuple) bool {
		f, _ := t[3].AsFloat()
		return f >= 0.8
	})
	if len(highSkill) != 2 {
		t.Errorf("Select high skill = %d rows", len(highSkill))
	}
	langs, err := r.Project("lang")
	if err != nil {
		t.Fatal(err)
	}
	if len(langs) != 2 {
		t.Errorf("Project(lang) = %d distinct values, want 2", len(langs))
	}
	if _, err := r.Project("zzz"); err == nil {
		t.Error("Project on unknown column should fail")
	}
}

func TestRelationClearAndClone(t *testing.T) {
	r := newWorkerRelation(t)
	r.CreateIndex("id")
	c := r.Clone()
	r.Clear()
	if r.Len() != 0 {
		t.Error("Clear did not empty relation")
	}
	if c.Len() != 3 {
		t.Error("Clone should be unaffected by Clear on the original")
	}
	if got := c.SelectEq("id", Int(3)); len(got) != 1 {
		t.Errorf("clone SelectEq = %d rows", len(got))
	}
}

func TestRelationConcurrentInserts(t *testing.T) {
	r := NewRelation("nums", MustSchema("n:int", "worker:int"))
	r.CreateIndex("n")
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.MustInsert(i, w)
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != workers*per {
		t.Errorf("Len = %d, want %d", r.Len(), workers*per)
	}
	if rows := r.SelectEq("n", Int(10)); len(rows) != workers {
		t.Errorf("SelectEq(n=10) = %d rows, want %d", len(rows), workers)
	}
}

func TestRelationPropertyInsertDeleteRoundTrip(t *testing.T) {
	f := func(ids []int16) bool {
		r := NewRelation("p", MustSchema("id:int"))
		uniq := make(map[int16]bool)
		for _, id := range ids {
			uniq[id] = true
			r.MustInsert(int(id))
		}
		if r.Len() != len(uniq) {
			return false
		}
		for id := range uniq {
			if ok, _ := r.Delete(NewTuple(int(id))); !ok {
				return false
			}
		}
		return r.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDatabaseCreateAndLookup(t *testing.T) {
	d := NewDatabase()
	r := d.MustCreate("w", workerSchema())
	if d.Relation("w") != r {
		t.Error("Relation(w) should return the created relation")
	}
	if _, err := d.Create("w", workerSchema()); err == nil {
		t.Error("duplicate Create should fail")
	}
	if !d.Has("w") || d.Has("x") {
		t.Error("Has misbehaves")
	}
	got, err := d.GetOrCreate("w", workerSchema())
	if err != nil || got != r {
		t.Errorf("GetOrCreate existing = %v,%v", got, err)
	}
	if _, err := d.GetOrCreate("w", MustSchema("a:int")); err == nil {
		t.Error("GetOrCreate with conflicting schema should fail")
	}
	d.MustCreate("t", MustSchema("id:int"))
	if names := d.Names(); len(names) != 2 || names[0] != "t" || names[1] != "w" {
		t.Errorf("Names = %v", names)
	}
	if !d.Drop("t") || d.Drop("t") {
		t.Error("Drop misbehaves")
	}
}

func TestDatabaseSnapshotRestore(t *testing.T) {
	d := NewDatabase()
	r := d.MustCreate("w", workerSchema())
	r.MustInsert(1, "alice", "en", 0.9)
	snap := d.Snapshot()
	r.MustInsert(2, "bob", "en", 0.7)
	d.MustCreate("extra", MustSchema("x:int"))
	if snap.Relation("w").Len() != 1 {
		t.Error("snapshot should not see later inserts")
	}
	if snap.Has("extra") {
		t.Error("snapshot should not see later relations")
	}
	d.Restore(snap)
	if d.Relation("w").Len() != 1 || d.Has("extra") {
		t.Error("Restore did not roll back state")
	}
	if d.TotalTuples() != 1 {
		t.Errorf("TotalTuples = %d", d.TotalTuples())
	}
}

func TestDatabaseStringer(t *testing.T) {
	d := NewDatabase()
	d.MustCreate("a", MustSchema("x:int"))
	if s := d.String(); !strings.Contains(s, "1 relations") {
		t.Errorf("String() = %q", s)
	}
}

func TestJoinNaturalSharedColumn(t *testing.T) {
	d := NewDatabase()
	w := d.MustCreate("worker", MustSchema("wid:int", "lang:string"))
	a := d.MustCreate("assign", MustSchema("wid:int", "task:string"))
	w.MustInsert(1, "en")
	w.MustInsert(2, "ja")
	a.MustInsert(1, "t1")
	a.MustInsert(1, "t2")
	a.MustInsert(3, "t3")
	rows, schema, err := Join(w, a)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Arity() != 3 {
		t.Errorf("join schema = %s", schema)
	}
	if len(rows) != 2 {
		t.Fatalf("join rows = %d, want 2 (%v)", len(rows), rows)
	}
	for _, row := range rows {
		id, _ := row[0].AsInt()
		if id != 1 {
			t.Errorf("unexpected joined row %v", row)
		}
	}
}

func TestJoinCrossProductWhenNoSharedColumns(t *testing.T) {
	d := NewDatabase()
	a := d.MustCreate("a", MustSchema("x:int"))
	b := d.MustCreate("b", MustSchema("y:int"))
	a.MustInsert(1)
	a.MustInsert(2)
	b.MustInsert(10)
	b.MustInsert(20)
	rows, schema, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || schema.Arity() != 2 {
		t.Errorf("cross product rows=%d schema=%s", len(rows), schema)
	}
}

func TestUnionDifferenceIntersect(t *testing.T) {
	d := NewDatabase()
	a := d.MustCreate("a", MustSchema("x:int"))
	b := d.MustCreate("b", MustSchema("x:int"))
	for _, v := range []int{1, 2, 3} {
		a.MustInsert(v)
	}
	for _, v := range []int{3, 4} {
		b.MustInsert(v)
	}
	u, err := Union(a, b)
	if err != nil || len(u) != 4 {
		t.Errorf("Union = %v,%v", u, err)
	}
	diff, err := Difference(a, b)
	if err != nil || len(diff) != 2 {
		t.Errorf("Difference = %v,%v", diff, err)
	}
	inter, err := Intersect(a, b)
	if err != nil || len(inter) != 1 {
		t.Errorf("Intersect = %v,%v", inter, err)
	}
	c := d.MustCreate("c", MustSchema("y:string"))
	if _, err := Union(a, c); err == nil {
		t.Error("Union with mismatched schema should fail")
	}
	if _, err := Difference(a, c); err == nil {
		t.Error("Difference with mismatched schema should fail")
	}
	if _, err := Intersect(a, c); err == nil {
		t.Error("Intersect with mismatched schema should fail")
	}
}

func TestAggregate(t *testing.T) {
	r := newWorkerRelation(t)
	count, err := Aggregate(r, "count", "")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := count.AsInt(); n != 3 {
		t.Errorf("count = %v", count)
	}
	sum, _ := Aggregate(r, "sum", "skill")
	if f, _ := sum.AsFloat(); f < 2.39 || f > 2.41 {
		t.Errorf("sum = %v", sum)
	}
	avg, _ := Aggregate(r, "avg", "skill")
	if f, _ := avg.AsFloat(); f < 0.79 || f > 0.81 {
		t.Errorf("avg = %v", avg)
	}
	min, _ := Aggregate(r, "min", "skill")
	if f, _ := min.AsFloat(); f != 0.7 {
		t.Errorf("min = %v", min)
	}
	max, _ := Aggregate(r, "max", "name")
	if max.AsString() != "carol" {
		t.Errorf("max name = %v", max)
	}
	if _, err := Aggregate(r, "median", "skill"); err == nil {
		t.Error("unknown aggregate should fail")
	}
	if _, err := Aggregate(r, "sum", "missing"); err == nil {
		t.Error("aggregate on missing column should fail")
	}
	empty := NewRelation("e", MustSchema("x:float"))
	if v, _ := Aggregate(empty, "avg", "x"); !v.IsNull() {
		t.Errorf("avg of empty relation = %v, want NULL", v)
	}
	if v, _ := Aggregate(empty, "min", "x"); !v.IsNull() {
		t.Errorf("min of empty relation = %v, want NULL", v)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := newWorkerRelation(t)
	var buf bytes.Buffer
	if err := ExportCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	d := NewDatabase()
	r2 := d.MustCreate("worker", workerSchema())
	n, err := ImportCSV(r2, &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || r2.Len() != 3 {
		t.Errorf("ImportCSV added %d rows", n)
	}
	a, b := r.All(), r2.All()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("row %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestImportCSVWithoutHeaderAndBadRows(t *testing.T) {
	d := NewDatabase()
	r := d.MustCreate("t", MustSchema("id:int", "name:string"))
	n, err := ImportCSV(r, strings.NewReader("1,alice\n2,bob\n"), false)
	if err != nil || n != 2 {
		t.Fatalf("ImportCSV = %d,%v", n, err)
	}
	_, err = ImportCSV(r, strings.NewReader("1,two,three\n"), false)
	if err == nil {
		t.Error("expected arity error")
	}
	_, err = ImportCSV(r, strings.NewReader("bad_header,name\n1,x\n"), true)
	if err == nil {
		t.Error("expected unknown header error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := newWorkerRelation(t)
	var buf bytes.Buffer
	if err := ExportJSON(r, &buf); err != nil {
		t.Fatal(err)
	}
	d := NewDatabase()
	r2, err := ImportJSON(d, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Name() != "worker" || r2.Len() != 3 {
		t.Errorf("imported %q with %d rows", r2.Name(), r2.Len())
	}
	a, b := r.All(), r2.All()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("row %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestImportJSONBadPayload(t *testing.T) {
	d := NewDatabase()
	if _, err := ImportJSON(d, strings.NewReader("{not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := ImportJSON(d, strings.NewReader(`{"name":"x","columns":[{"name":"a","type":"blob"}],"rows":[]}`)); err == nil {
		t.Error("expected unknown type error")
	}
}

func ExampleRelation_SelectEq() {
	r := NewRelation("worker", MustSchema("id:int", "lang:string"))
	r.MustInsert(1, "en")
	r.MustInsert(2, "ja")
	r.MustInsert(3, "en")
	for _, t := range r.SelectEq("lang", String("en")) {
		fmt.Println(t)
	}
	// Output:
	// (1, "en")
	// (3, "en")
}

// TestRelationNaNSetSemantics pins the set semantics of NaN facts: under the
// former canonical-key layout every NaN rendered as the same key, so a NaN
// tuple deduplicated with itself; the hash-bucket layout must preserve that
// (storedEqual folds NaNs) or a rule deriving a NaN fact would be re-inserted
// on every fixpoint iteration and evaluation would never converge.
func TestRelationNaNSetSemantics(t *testing.T) {
	r := NewRelation("n", MustSchema("x:float"))
	nan := math.NaN()
	if ok, err := r.Insert(NewTuple(nan)); !ok || err != nil {
		t.Fatalf("first insert: %v %v", ok, err)
	}
	if ok, err := r.Insert(NewTuple(nan)); ok || err != nil {
		t.Errorf("second NaN insert should dedupe, got inserted=%v err=%v", ok, err)
	}
	// A NaN with a different payload must dedupe too (the old key rendered
	// every NaN identically).
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	if !math.IsNaN(otherNaN) {
		t.Fatal("payload flip should still be NaN")
	}
	if ok, _ := r.Insert(NewTuple(otherNaN)); ok {
		t.Error("NaN with different payload should dedupe")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(NewTuple(nan)) {
		t.Error("Contains(NaN) should be true")
	}
	if ok, err := r.Delete(NewTuple(nan)); !ok || err != nil {
		t.Errorf("Delete(NaN): %v %v", ok, err)
	}
	if r.Len() != 0 {
		t.Errorf("Len after delete = %d", r.Len())
	}
}

// TestSupportCounting covers the support-record half of the storage layer:
// base inserts vs counted derivation inserts, decrement-to-removal, and the
// invariant that base-supported tuples survive every derivation-maintenance
// API.
func TestSupportCounting(t *testing.T) {
	r := NewRelation("fact", MustSchema("id:int"))
	if err := r.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}

	// A derived tuple counts its supports and dies with the last one.
	if added, err := r.InsertDerived(NewTuple(1)); err != nil || !added {
		t.Fatalf("first derivation: added=%v err=%v", added, err)
	}
	if added, _ := r.InsertDerived(NewTuple(1)); added {
		t.Error("second derivation of the same tuple should not re-add it")
	}
	if base, derived, ok := r.Support(NewTuple(1)); base || derived != 2 || !ok {
		t.Fatalf("Support = (%v, %d, %v), want (false, 2, true)", base, derived, ok)
	}
	if removed, _ := r.DecDerived(NewTuple(1)); removed {
		t.Error("one remaining support should keep the tuple")
	}
	if removed, _ := r.DecDerived(NewTuple(1)); !removed {
		t.Error("last support gone: tuple should be removed")
	}
	if r.Contains(NewTuple(1)) || r.Len() != 0 {
		t.Fatalf("tuple should be gone, len=%d", r.Len())
	}
	if got := r.SelectEq("id", NewTuple(1)[0]); len(got) != 0 {
		t.Errorf("index still answers for removed tuple: %v", got)
	}
	// Decrementing an absent tuple, or a count already at zero, is an error
	// that changes nothing.
	if removed, err := r.DecDerived(NewTuple(42)); removed || !errors.Is(err, ErrSupportUnderflow) {
		t.Errorf("DecDerived(absent) = (%v, %v), want ErrSupportUnderflow", removed, err)
	}
	r.MustInsert(7)
	if removed, err := r.DecDerived(NewTuple(7)); removed || !errors.Is(err, ErrSupportUnderflow) {
		t.Errorf("DecDerived(base tuple with no derivation) = (%v, %v), want ErrSupportUnderflow", removed, err)
	}
	if base, derived, ok := r.Support(NewTuple(7)); !base || derived != 0 || !ok {
		t.Errorf("failed DecDerived changed the support record: (%v, %d, %v)", base, derived, ok)
	}
	r.Delete(NewTuple(7)) //nolint:errcheck

	// Base support shields a tuple from derivation maintenance.
	r.MustInsert(2)
	if added, _ := r.InsertDerived(NewTuple(2)); added {
		t.Error("derivation over an existing base tuple should not re-add")
	}
	if base, derived, ok := r.Support(NewTuple(2)); !base || derived != 1 || !ok {
		t.Fatalf("Support = (%v, %d, %v), want (true, 1, true)", base, derived, ok)
	}
	if removed, _ := r.DecDerived(NewTuple(2)); removed {
		t.Error("base tuple must survive losing its derivations")
	}
	if !r.Contains(NewTuple(2)) {
		t.Error("base tuple vanished")
	}
	// Insert over an existing derived tuple promotes it to base.
	r.InsertDerived(NewTuple(3)) //nolint:errcheck
	if added, err := r.Insert(NewTuple(3)); err != nil || added {
		t.Fatalf("base assert over derived tuple: added=%v err=%v", added, err)
	}
	if removed, _ := r.DecDerived(NewTuple(3)); removed {
		t.Error("promoted tuple must survive losing its derivation")
	}
	if err := func() error { _, err := r.InsertDerived(NewTuple("nope")); return err }(); err == nil {
		t.Error("schema mismatch should error")
	}
}

// TestClearDerived pins the over-deletion primitive: every derived-only tuple
// goes, base tuples stay with their counts reset, and indexes answer for
// exactly the survivors.
func TestClearDerived(t *testing.T) {
	r := NewRelation("fact", MustSchema("id:int"))
	if err := r.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	r.MustInsert(1)
	r.InsertDerived(NewTuple(1)) //nolint:errcheck // base + one derivation
	for i := 2; i <= 40; i++ {
		r.InsertDerived(NewTuple(i)) //nolint:errcheck
	}
	v := r.Version()
	if removed := r.ClearDerived(); removed != 39 {
		t.Fatalf("ClearDerived removed %d, want 39", removed)
	}
	if r.Len() != 1 || !r.Contains(NewTuple(1)) {
		t.Fatalf("survivors = %v", r.All())
	}
	if base, derived, ok := r.Support(NewTuple(1)); !base || derived != 0 || !ok {
		t.Errorf("survivor support = (%v, %d, %v), want (true, 0, true)", base, derived, ok)
	}
	if r.Version() == v {
		t.Error("removal should bump the version")
	}
	if got := r.SelectEq("id", NewTuple(7)[0]); len(got) != 0 {
		t.Errorf("index still answers for cleared tuple: %v", got)
	}
	if got := r.SelectEq("id", NewTuple(1)[0]); len(got) != 1 {
		t.Errorf("index lost the surviving tuple: %v", got)
	}
	// A second clear finds nothing to remove and must not disturb contents or
	// version.
	v = r.Version()
	if removed := r.ClearDerived(); removed != 0 {
		t.Errorf("second ClearDerived removed %d", removed)
	}
	if r.Version() != v || r.Len() != 1 {
		t.Error("no-op clear must leave version and contents alone")
	}
}

// TestCloneCarriesSupport checks Clone preserves base flags and derivation
// counts, so a cloned database retracts exactly like the original.
func TestCloneCarriesSupport(t *testing.T) {
	r := NewRelation("fact", MustSchema("id:int"))
	r.MustInsert(1)
	r.InsertDerived(NewTuple(2)) //nolint:errcheck
	r.InsertDerived(NewTuple(2)) //nolint:errcheck
	c := r.Clone()
	if base, derived, ok := c.Support(NewTuple(1)); !base || derived != 0 || !ok {
		t.Errorf("clone support(1) = (%v, %d, %v)", base, derived, ok)
	}
	if base, derived, ok := c.Support(NewTuple(2)); base || derived != 2 || !ok {
		t.Errorf("clone support(2) = (%v, %d, %v)", base, derived, ok)
	}
	if removed := c.ClearDerived(); removed != 1 {
		t.Errorf("clone ClearDerived removed %d, want 1", removed)
	}
	if r.Len() != 2 {
		t.Error("clearing the clone must not touch the original")
	}
}
