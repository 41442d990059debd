package relstore

import (
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
	if got := s.Columns(); got[2] != (Column{Name: "lang", Type: TypeString}) {
		t.Errorf("Columns()[2] = %v", got[2])
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

func TestSchemaCoerce(t *testing.T) {
	s := workerSchema()
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
	// Each column type rejects what it cannot hold.
	s = MustSchema("i:int", "f:float", "s:string", "b:bool")
	for _, bad := range []Tuple{
		{String("x"), Float(2), String("x"), Bool(true)},
		{Int(1), String("y"), String("x"), Bool(true)},
		{Int(1), Float(2), String("x"), String("maybe")},
		{String("3.5"), Float(2), String("x"), Bool(true)},
		{Float(1e300), Float(2), String("x"), Bool(true)},
		{Float(math.NaN()), Float(2), String("x"), Bool(true)},
	} {
		if _, err := s.Coerce(bad); err == nil {
			t.Errorf("Coerce(%v) accepted a value its column cannot hold", bad)
		}
	}
	if _, err := s.Coerce(Tuple{Int(1)}); err == nil {
		t.Error("Coerce should reject a wrong arity")
	}
	got, err := s.Coerce(Tuple{Float(7.9), Int(2), Bool(false), Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	want := Tuple{Int(7), Float(2), String("false"), Bool(false)}
	for i := range want {
		if got[i].Type() != want[i].Type() || !got[i].Equal(want[i]) {
			t.Errorf("Coerce column %d = %v (%s), want %v (%s)", i, got[i], got[i].Type(), want[i], want[i].Type())
		}
	}
	// A column of type null keeps values as they are.
	n := NewSchema(Column{Name: "any", Type: TypeNull})
	if got, err := n.Coerce(Tuple{Int(3)}); err != nil || got[0].Type() != TypeInt {
		t.Errorf("Coerce into a null column = %v, %v", got, err)
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

// TestRelationDelete pins the removal of a tuple through its last
// derivation: it leaves the relation and every probe, bumps the version, and
// a second removal fails without touching the relation.
func TestRelationDelete(t *testing.T) {
	r := newWorkerRelation(t)
	dave := NewTuple(4, "dave", "en", 0.5)
	r.InsertDerived(dave) //nolint:errcheck
	v := r.Version()
	removed, err := r.DecDerived(dave)
	if err != nil || !removed {
		t.Fatalf("DecDerived = %v, %v", removed, err)
	}
	if r.Len() != 3 || contains(r, dave) || r.Version() == v {
		t.Errorf("after removal: Len %d, contains %v, version %d -> %d", r.Len(), contains(r, dave), v, r.Version())
	}
	if found, _ := r.ContainsAt([]int{0}, []Value{Int(4)}); found {
		t.Error("ContainsAt still finds the removed tuple")
	}
	v = r.Version()
	removed, err = r.DecDerived(dave)
	if removed || !errors.Is(err, ErrSupportUnderflow) {
		t.Errorf("second DecDerived = %v, %v; want ErrSupportUnderflow", removed, err)
	}
	if r.Len() != 3 || r.Version() != v {
		t.Errorf("failed removal changed the relation: Len %d, version %d -> %d", r.Len(), v, r.Version())
	}
}

// TestRelationSelectEqWithAndWithoutIndex pins that a single-column ScanEqAt
// returns the same rows by scan and by index, and that the index follows
// derived inserts and removals.
func TestRelationSelectEqWithAndWithoutIndex(t *testing.T) {
	r := newWorkerRelation(t)
	lang := []int{2}
	noIdx, indexed, err := scanEqAt(r, lang, String("en"))
	if err != nil || indexed || len(noIdx) != 2 {
		t.Fatalf("ScanEqAt without index = %v (indexed %v, err %v)", noIdx, indexed, err)
	}
	if err := r.EnsureIndexAt(lang); err != nil {
		t.Fatal(err)
	}
	withIdx, indexed, err := scanEqAt(r, lang, String("en"))
	if err != nil || !indexed || !sameTuples(withIdx, noIdx) {
		t.Fatalf("indexed ScanEqAt = %v (indexed %v, err %v), want %v", withIdx, indexed, err, noIdx)
	}
	// The index stays exact across derived inserts and removals.
	r.InsertDerived(NewTuple(5, "eve", "en", 0.5))   //nolint:errcheck
	r.InsertDerived(NewTuple(6, "frank", "en", 0.4)) //nolint:errcheck
	r.DecDerived(NewTuple(5, "eve", "en", 0.5))      //nolint:errcheck
	got, _, _ := scanEqAt(r, lang, String("en"))
	var want []Tuple
	for _, tu := range r.All() {
		if tu[2].Equal(String("en")) {
			want = append(want, tu)
		}
	}
	if len(got) != 3 || !sameTuples(got, want) {
		t.Errorf("after mutations, indexed ScanEqAt = %v, want %v", got, want)
	}
	if got, indexed, _ := scanEqAt(r, lang, String("fr")); len(got) != 0 || !indexed {
		t.Errorf("indexed ScanEqAt of an absent value = %v (indexed %v)", got, indexed)
	}
}

// TestRelationCreateIndexUnknownColumn pins that an index on a position the
// schema does not have fails and leaves no index behind.
func TestRelationCreateIndexUnknownColumn(t *testing.T) {
	r := newWorkerRelation(t)
	for _, pos := range [][]int{{4}, {-1}, {0, 4}} {
		if err := r.EnsureIndexAt(pos); err == nil {
			t.Errorf("EnsureIndexAt(%v) on a 4-column relation: expected error", pos)
		}
	}
	if len(r.indexes) != 0 || r.HasIndexAt([]int{0}) {
		t.Errorf("failed EnsureIndexAt left %d indexes", len(r.indexes))
	}
}

func ExampleRelation_ScanEqAt() {
	r := NewRelation("worker", MustSchema("id:int", "lang:string"))
	r.MustInsert(1, "en")
	r.MustInsert(2, "ja")
	r.MustInsert(3, "en")
	_, err := r.ScanEqAt([]int{1}, []Value{String("en")}, func(t Tuple) bool {
		fmt.Println(t)
		return true
	})
	if err != nil {
		fmt.Println(err)
	}
	// Unordered output:
	// (1, "en")
	// (3, "en")
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

// TestRelationClear pins Clear: it empties the relation and bumps the
// version, the index definitions survive and answer for exactly the new
// contents, and clearing an empty relation changes nothing.
func TestRelationClear(t *testing.T) {
	r := newWorkerRelation(t)
	if err := r.EnsureIndexAt([]int{0}); err != nil {
		t.Fatal(err)
	}
	v := r.Version()
	r.Clear()
	if r.Len() != 0 || r.Version() == v {
		t.Fatalf("Clear left Len = %d, version %d -> %d", r.Len(), v, r.Version())
	}
	if got, _, _ := scanEqAt(r, []int{0}, Int(3)); len(got) != 0 {
		t.Errorf("index still answers after Clear: %v", got)
	}
	r.MustInsert(3, "carol", "ja", 0.8)
	if got, indexed, _ := scanEqAt(r, []int{0}, Int(3)); len(got) != 1 || !indexed {
		t.Errorf("index after Clear = %v (indexed %v), want the new tuple", got, indexed)
	}
	r.Clear()
	v = r.Version()
	r.Clear()
	if r.Version() != v {
		t.Error("clearing an empty relation must not bump the version")
	}
}

func TestRelationConcurrentInserts(t *testing.T) {
	r := NewRelation("nums", MustSchema("n:int", "worker:int"))
	if err := r.EnsureIndexAt([]int{0}); err != nil {
		t.Fatal(err)
	}
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
	if rows, _, _ := scanEqAt(r, []int{0}, Int(10)); len(rows) != workers {
		t.Errorf("ScanEqAt(n=10) = %d rows, want %d", len(rows), workers)
	}
}

// TestRelationPropertyInsertDeleteRoundTrip quick-checks counted support:
// every derivation of an id is one InsertDerived, the relation holds each id
// once with its multiplicity as the count, and the id leaves with the
// DecDerived of its last derivation, not before.
func TestRelationPropertyInsertDeleteRoundTrip(t *testing.T) {
	f := func(ids []int16) bool {
		r := NewRelation("p", MustSchema("id:int"))
		mult := make(map[int16]int)
		for _, id := range ids {
			added, err := r.InsertDerived(NewTuple(int(id)))
			if err != nil || added != (mult[id] == 0) {
				return false
			}
			mult[id]++
		}
		if r.Len() != len(mult) {
			return false
		}
		for id, n := range mult {
			if _, derived, ok := r.Support(NewTuple(int(id))); !ok || derived != n {
				return false
			}
			for k := n; k > 0; k-- {
				if removed, err := r.DecDerived(NewTuple(int(id))); err != nil || removed != (k == 1) {
					return false
				}
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
	r, err := d.GetOrCreate("w", workerSchema())
	if err != nil {
		t.Fatal(err)
	}
	if d.Relation("w") != r || d.Relation("x") != nil {
		t.Error("Relation should return the created relation and nil for an absent one")
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
	if !contains(r, NewTuple(nan)) {
		t.Error("Support(NaN) should find the stored NaN")
	}
	// Removal finds a NaN tuple too: derivations of either payload count on
	// the one stored NaN and its last one removes it.
	d := NewRelation("d", MustSchema("x:float"))
	d.InsertDerived(NewTuple(nan))      //nolint:errcheck
	d.InsertDerived(NewTuple(otherNaN)) //nolint:errcheck
	if _, derived, _ := d.Support(NewTuple(nan)); d.Len() != 1 || derived != 2 {
		t.Fatalf("derived NaN: Len = %d, count %d; want 1 tuple counted twice", d.Len(), derived)
	}
	for k := 2; k > 0; k-- {
		if removed, err := d.DecDerived(NewTuple(nan)); removed != (k == 1) || err != nil {
			t.Errorf("DecDerived(NaN) with %d derivations = %v, %v", k, removed, err)
		}
	}
	if d.Len() != 0 {
		t.Errorf("Len after the last DecDerived = %d", d.Len())
	}
}

// TestSupportCounting covers the support-record half of the storage layer:
// base inserts vs counted derivation inserts, decrement-to-removal, and the
// invariant that base-supported tuples survive every derivation-maintenance
// API.
func TestSupportCounting(t *testing.T) {
	r := NewRelation("fact", MustSchema("id:int"))
	if err := r.EnsureIndexAt([]int{0}); err != nil {
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
	if contains(r, NewTuple(1)) || r.Len() != 0 {
		t.Fatalf("tuple should be gone, len=%d", r.Len())
	}
	if got, _, _ := scanEqAt(r, []int{0}, Int(1)); len(got) != 0 {
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
	if !contains(r, NewTuple(2)) {
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
	if err := r.EnsureIndexAt([]int{0}); err != nil {
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
	if r.Len() != 1 || !contains(r, NewTuple(1)) {
		t.Fatalf("survivors = %v", r.All())
	}
	if base, derived, ok := r.Support(NewTuple(1)); !base || derived != 0 || !ok {
		t.Errorf("survivor support = (%v, %d, %v), want (true, 0, true)", base, derived, ok)
	}
	if r.Version() == v {
		t.Error("removal should bump the version")
	}
	if got, _, _ := scanEqAt(r, []int{0}, Int(7)); len(got) != 0 {
		t.Errorf("index still answers for cleared tuple: %v", got)
	}
	if got, indexed, _ := scanEqAt(r, []int{0}, Int(1)); len(got) != 1 || !indexed {
		t.Errorf("index lost the surviving tuple: %v (indexed %v)", got, indexed)
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

// collidingFloats are distinct values whose Value.Hash is the same: integral
// floats past the int64 range hash by their out-of-range int64 conversion,
// which is one value on amd64 and arm64 alike. Tuples of them share one row
// bucket, so they drive the overflow half of every bucket walk.
var collidingFloats = []float64{1e19, 1e20, 1e21, 1e22}

// TestHashCollisionBuckets pins the relation's behaviour when distinct tuples
// share a hash bucket: inserts, support lookups, removal from the inline slot
// and from the overflow list, scans and ClearDerived must all treat each
// tuple on its own.
func TestHashCollisionBuckets(t *testing.T) {
	r := NewRelation("c", MustSchema("x:float"))
	if err := r.EnsureIndexAt([]int{0}); err != nil {
		t.Fatal(err)
	}
	for _, f := range collidingFloats {
		if added, err := r.InsertDerived(NewTuple(f)); !added || err != nil {
			t.Fatalf("InsertDerived(%g) = %v, %v", f, added, err)
		}
	}
	r.MustInsert(1e21)              // base support on an overflow entry
	r.InsertDerived(NewTuple(1e22)) //nolint:errcheck
	if r.Len() != len(collidingFloats) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(collidingFloats))
	}
	for _, tc := range []struct {
		f       float64
		base    bool
		derived int
	}{{1e19, false, 1}, {1e20, false, 1}, {1e21, true, 1}, {1e22, false, 2}} {
		if base, derived, ok := r.Support(NewTuple(tc.f)); !ok || base != tc.base || derived != tc.derived {
			t.Errorf("Support(%g) = (%v, %d, %v), want (%v, %d, true)", tc.f, base, derived, ok, tc.base, tc.derived)
		}
	}
	// A tuple in the same bucket that is not stored is a miss everywhere.
	if _, _, ok := r.Support(NewTuple(1e23)); ok {
		t.Error("Support found an absent tuple of a shared bucket")
	}
	if _, err := r.DecDerived(NewTuple(1e23)); !errors.Is(err, ErrSupportUnderflow) {
		t.Errorf("DecDerived(absent, shared bucket) = %v, want ErrSupportUnderflow", err)
	}
	// Scans and the index see every entry; early stop holds in the overflow.
	seen := 0
	r.ScanSupport(func(Tuple, bool, int) bool { seen++; return true })
	if seen != len(collidingFloats) {
		t.Errorf("ScanSupport visited %d, want %d", seen, len(collidingFloats))
	}
	for stop := 1; stop <= len(collidingFloats); stop++ {
		n := 0
		r.ScanSupport(func(Tuple, bool, int) bool { n++; return n < stop })
		if n != stop {
			t.Errorf("ScanSupport stopping after %d visited %d", stop, n)
		}
	}
	// Keep the base entry's derivation; remove one overflow entry, then the
	// inline one, which promotes the next overflow entry.
	if removed, err := r.DecDerived(NewTuple(1e20)); !removed || err != nil {
		t.Fatalf("DecDerived(1e20) = %v, %v", removed, err)
	}
	if removed, err := r.DecDerived(NewTuple(1e22)); removed || err != nil {
		t.Fatalf("DecDerived(1e22) with two derivations = %v, %v", removed, err)
	}
	if removed, err := r.DecDerived(NewTuple(1e19)); !removed || err != nil {
		t.Fatalf("DecDerived(1e19) = %v, %v", removed, err)
	}
	if got := r.All(); len(got) != 2 || !got[0].Equal(NewTuple(1e21)) || !got[1].Equal(NewTuple(1e22)) {
		t.Fatalf("survivors = %v, want [1e21 1e22]", got)
	}
	for _, f := range []float64{1e21, 1e22} {
		if got, indexed, _ := scanEqAt(r, []int{0}, Float(f)); len(got) != 1 || !indexed {
			t.Errorf("index probe %g = %v (indexed %v)", f, got, indexed)
		}
	}
	// ClearDerived keeps the base entry of the shared bucket only.
	for _, f := range collidingFloats[:2] {
		r.InsertDerived(NewTuple(f)) //nolint:errcheck
	}
	if removed := r.ClearDerived(); removed != 3 {
		t.Fatalf("ClearDerived removed %d, want 3", removed)
	}
	if base, derived, ok := r.Support(NewTuple(1e21)); r.Len() != 1 || !ok || !base || derived != 0 {
		t.Errorf("after ClearDerived: Len %d, Support(1e21) = (%v, %d, %v)", r.Len(), base, derived, ok)
	}
	// A ClearDerived that removes nothing resets the counts of entries held
	// in a shared bucket without touching the version.
	r.MustInsert(1e19)
	r.InsertDerived(NewTuple(1e19)) //nolint:errcheck
	v := r.Version()
	if removed := r.ClearDerived(); removed != 0 || r.Version() != v {
		t.Errorf("no-op ClearDerived removed %d, version %d -> %d", removed, v, r.Version())
	}
	if _, derived, _ := r.Support(NewTuple(1e19)); derived != 0 {
		t.Errorf("count of a kept overflow entry = %d, want 0", derived)
	}
}

// TestSupportMissesAndScanEarlyStop covers the lookups that find nothing:
// Support of an absent or ill-typed tuple, ScanSupport and All of an empty
// relation, and ScanSupport stopping at its first tuple.
func TestSupportMissesAndScanEarlyStop(t *testing.T) {
	r := newWorkerRelation(t)
	if _, _, ok := r.Support(NewTuple(9, "zed", "en", 0.1)); ok {
		t.Error("Support found an absent tuple")
	}
	if _, _, ok := r.Support(NewTuple("not-an-int", "x", "en", 0.1)); ok {
		t.Error("Support found a tuple that does not fit the schema")
	}
	if _, _, ok := r.Support(NewTuple(1)); ok {
		t.Error("Support found a tuple of the wrong arity")
	}
	n := 0
	r.ScanSupport(func(_ Tuple, base bool, derived int) bool {
		if !base || derived != 0 {
			t.Errorf("base tuple reports (%v, %d)", base, derived)
		}
		n++
		return false
	})
	if n != 1 {
		t.Errorf("ScanSupport visited %d tuples after returning false", n)
	}
	empty := NewRelation("e", MustSchema("x:int"))
	empty.ScanSupport(func(Tuple, bool, int) bool { t.Error("empty relation yielded a tuple"); return true })
	if got := empty.All(); len(got) != 0 {
		t.Errorf("All() of an empty relation = %v", got)
	}
	if _, err := r.DecDerived(NewTuple("x", "y", "z", "w")); err == nil || errors.Is(err, ErrSupportUnderflow) {
		t.Errorf("DecDerived of an ill-typed tuple = %v, want a schema error", err)
	}
	if got := r.String(); got != "worker(id int, name string, lang string, skill float) [3 tuples]" {
		t.Errorf("String() = %q", got)
	}
}
