package relstore

import (
	"math"
	"testing"
	"testing/quick"
)

func newAssignRelation() *Relation {
	r := NewRelation("assign", MustSchema("worker:string", "task:int", "score:float"))
	r.MustInsert("alice", 1, 0.9)
	r.MustInsert("alice", 2, 0.5)
	r.MustInsert("bob", 1, 0.7)
	r.MustInsert("bob", 3, 0.8)
	r.MustInsert("carol", 2, 0.6)
	return r
}

// sameTuples reports whether two sorted tuple lists are equal.
func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestCompositeIndexLookup(t *testing.T) {
	r := newAssignRelation()
	workerTask := []int{0, 1}
	vals := []Value{String("alice"), Int(2)}

	noIdx, indexed, err := scanEqAt(r, workerTask, vals...)
	if err != nil {
		t.Fatal(err)
	}
	if len(noIdx) != 1 || indexed {
		t.Fatalf("ScanEqAt without index = %v (indexed %v)", noIdx, indexed)
	}
	if err := r.EnsureIndexAt(workerTask); err != nil {
		t.Fatal(err)
	}
	if !r.HasIndexAt(workerTask) {
		t.Error("HasIndexAt(worker, task) = false after EnsureIndexAt")
	}
	if r.HasIndexAt([]int{0}) || r.HasIndexAt([]int{1}) {
		t.Error("a composite index is not a single-column index")
	}
	withIdx, indexed, err := scanEqAt(r, workerTask, vals...)
	if err != nil {
		t.Fatal(err)
	}
	if !indexed || !sameTuples(withIdx, noIdx) {
		t.Errorf("indexed ScanEqAt = %v (indexed %v), want %v", withIdx, indexed, noIdx)
	}
	// A probe on a subset of the indexed positions does not use the index.
	if got, indexed, _ := scanEqAt(r, []int{0}, String("alice")); len(got) != 2 || indexed {
		t.Errorf("ScanEqAt(worker) = %v (indexed %v), want 2 scanned rows", got, indexed)
	}
}

func TestCompositeIndexMaintenance(t *testing.T) {
	r := newAssignRelation()
	workerTask := []int{0, 1}
	if err := r.EnsureIndexAt(workerTask); err != nil {
		t.Fatal(err)
	}
	r.InsertDerived(NewTuple("dave", 1, 0.4)) //nolint:errcheck
	if got, _, _ := scanEqAt(r, workerTask, String("dave"), Int(1)); len(got) != 1 {
		t.Errorf("insert not reflected in index: %v", got)
	}
	if removed, err := r.DecDerived(NewTuple("dave", 1, 0.4)); !removed || err != nil {
		t.Fatalf("DecDerived = %v, %v", removed, err)
	}
	if got, _, _ := scanEqAt(r, workerTask, String("dave"), Int(1)); len(got) != 0 {
		t.Errorf("removal not reflected in index: %v", got)
	}
	r.Clear()
	if got, _, _ := scanEqAt(r, workerTask, String("bob"), Int(1)); len(got) != 0 {
		t.Errorf("clear not reflected in index: %v", got)
	}
	// The index definition survives Clear and keeps working.
	r.MustInsert("erin", 9, 1.0)
	if got, indexed, _ := scanEqAt(r, workerTask, String("erin"), Int(9)); len(got) != 1 || !indexed {
		t.Errorf("index dead after clear: %v (indexed %v)", got, indexed)
	}
}

func TestPositionBasedIndexAPI(t *testing.T) {
	r := newAssignRelation()
	if r.HasIndexAt([]int{0, 1}) {
		t.Error("no index exists yet")
	}
	if err := r.EnsureIndexAt([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if !r.HasIndexAt([]int{0, 1}) {
		t.Error("EnsureIndexAt built no index")
	}
	if err := r.EnsureIndexAt([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.EnsureIndexAt([]int{2}); err != nil {
		t.Fatal(err)
	}
	if len(r.indexes) != 2 {
		t.Errorf("EnsureIndexAt created duplicates: %d indexes, want 2", len(r.indexes))
	}
	// The built index answers probes and stays maintained.
	r.MustInsert("frank", 4, 0.2)
	n := 0
	idx, err := r.ScanEqAt([]int{0, 1}, []Value{String("frank"), Int(4)}, func(Tuple) bool { n++; return true })
	if err != nil || !idx || n != 1 {
		t.Errorf("ScanEqAt via EnsureIndexAt index: indexed=%v n=%d err=%v", idx, n, err)
	}
	if err := r.EnsureIndexAt([]int{1, 0}); err == nil {
		t.Error("descending positions should fail")
	}
	if err := r.EnsureIndexAt([]int{1, 1}); err == nil {
		t.Error("repeated positions should fail")
	}
	if err := r.EnsureIndexAt(nil); err == nil {
		t.Error("empty positions should fail")
	}
	if r.HasIndexAt([]int{9}) || r.HasIndexAt(nil) {
		t.Error("invalid positions should report false")
	}
}

// TestEnsureIndexIdempotent pins that re-ensuring an existing index keeps the
// index it has instead of building (or filling) a second one, and that a
// further index on other positions leaves the first one alone.
func TestEnsureIndexIdempotent(t *testing.T) {
	r := newAssignRelation()
	if err := r.EnsureIndexAt([]int{0}); err != nil {
		t.Fatal(err)
	}
	first := r.lookup([]int{0})
	if err := r.EnsureIndexAt([]int{0}); err != nil {
		t.Fatal(err)
	}
	if err := r.EnsureIndexAt([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if r.lookup([]int{0}) != first {
		t.Error("re-ensuring the index replaced it")
	}
	// Every tuple sits in the index once: a re-fill would yield duplicates.
	n := 0
	first.probe(HashValues(String("alice")), func(Tuple) bool { n++; return true })
	if n != 2 {
		t.Errorf("index holds %d entries for alice, want 2", n)
	}
}

// TestIndexedColumnsMetadata pins HasIndexAt over every position set of a
// ternary relation: none before any index, exactly the ensured ones after,
// and the same ones after Clear, ClearDerived and a derived insert and
// removal, which rebuild contents but keep definitions.
func TestIndexedColumnsMetadata(t *testing.T) {
	r := newAssignRelation()
	sets := [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	check := func(stage string, want ...int) {
		t.Helper()
		for i, s := range sets {
			wanted := false
			for _, w := range want {
				wanted = wanted || w == i
			}
			if got := r.HasIndexAt(s); got != wanted {
				t.Errorf("%s: HasIndexAt(%v) = %v, want %v", stage, s, got, wanted)
			}
		}
	}
	check("fresh")
	if err := r.EnsureIndexAt([]int{2}); err != nil {
		t.Fatal(err)
	}
	if err := r.EnsureIndexAt([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	check("ensured", 2, 3)
	r.InsertDerived(NewTuple("dave", 5, 0.1)) //nolint:errcheck
	if n := r.ClearDerived(); n != 1 {
		t.Fatalf("ClearDerived removed %d tuples, want 1", n)
	}
	check("after ClearDerived", 2, 3)
	r.Clear()
	check("after Clear", 2, 3)
}

func TestScanEqEdgeCases(t *testing.T) {
	r := newAssignRelation()
	if _, err := r.ScanEqAt([]int{0}, nil, func(Tuple) bool { return true }); err == nil {
		t.Error("mismatched positions/values should fail")
	}
	if _, err := r.ScanEqAt(nil, nil, func(Tuple) bool { return true }); err == nil {
		t.Error("zero positions should fail, not panic")
	}
	if _, err := r.ScanEqAt([]int{5}, []Value{Int(1)}, func(Tuple) bool { return true }); err == nil {
		t.Error("out-of-range position should fail")
	}
	if _, err := r.ScanEqAt([]int{-1}, []Value{Int(1)}, func(Tuple) bool { return true }); err == nil {
		t.Error("negative position should fail")
	}
	if _, err := r.ScanEqAt([]int{1, 0}, []Value{Int(1), Int(2)}, func(Tuple) bool { return true }); err == nil {
		t.Error("descending positions should fail")
	}
	// A NaN probe matches nothing (probes use Equal, not set equality).
	if got, _, _ := scanEqAt(r, []int{2}, Float(math.NaN())); len(got) != 0 {
		t.Errorf("NaN probe matched %v", got)
	}
	// Early termination stops the scan and the index probe alike.
	for _, indexed := range []bool{false, true} {
		if indexed {
			if err := r.EnsureIndexAt([]int{1}); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		r.ScanEqAt([]int{1}, []Value{Int(1)}, func(Tuple) bool { n++; return false }) //nolint:errcheck
		if n != 1 {
			t.Errorf("early stop (indexed %v) visited %d rows, want 1", indexed, n)
		}
	}
}

// TestSelectEqMultiMatchesScan quick-checks that an indexed composite probe
// returns exactly the tuples a predicate scan returns, over random data.
func TestSelectEqMultiMatchesScan(t *testing.T) {
	f := func(rows []uint8, probeA, probeB uint8) bool {
		r := NewRelation("t", MustSchema("a:int", "b:int"))
		for i := 0; i+1 < len(rows); i += 2 {
			r.MustInsert(int(rows[i]%8), int(rows[i+1]%8))
		}
		va, vb := Int(int64(probeA%8)), Int(int64(probeB%8))
		scanned, indexed, err := scanEqAt(r, []int{0, 1}, va, vb)
		if err != nil || indexed {
			return false
		}
		if err := r.EnsureIndexAt([]int{0, 1}); err != nil {
			return false
		}
		probed, indexed, err := scanEqAt(r, []int{0, 1}, va, vb)
		if err != nil || !indexed {
			return false
		}
		var want []Tuple
		for _, t := range r.All() {
			if t[0].Equal(va) && t[1].Equal(vb) {
				want = append(want, t)
			}
		}
		return sameTuples(scanned, want) && sameTuples(probed, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContainsAt(t *testing.T) {
	r := NewRelation("w", MustSchema("a:int", "b:string"))
	r.MustInsert(1, "x")
	r.MustInsert(2, "y")

	found, err := r.ContainsAt([]int{0, 1}, []Value{Int(1), String("x")})
	if err != nil || !found {
		t.Errorf("ContainsAt existing = %v, %v", found, err)
	}
	found, err = r.ContainsAt([]int{0}, []Value{Int(3)})
	if err != nil || found {
		t.Errorf("ContainsAt missing = %v, %v", found, err)
	}
	// Indexed probes answer the same way.
	if err := r.EnsureIndexAt([]int{0}); err != nil {
		t.Fatal(err)
	}
	found, err = r.ContainsAt([]int{0}, []Value{Int(2)})
	if err != nil || !found {
		t.Errorf("ContainsAt indexed = %v, %v", found, err)
	}
	found, err = r.ContainsAt([]int{0}, []Value{Int(3)})
	if err != nil || found {
		t.Errorf("ContainsAt indexed missing = %v, %v", found, err)
	}
	// Contract violations surface as errors.
	if _, err := r.ContainsAt([]int{1, 0}, []Value{Int(1), Int(2)}); err == nil {
		t.Error("descending positions should error")
	}
	if _, err := r.ContainsAt(nil, nil); err == nil {
		t.Error("empty positions should error")
	}
}

// TestIndexBucketPromotionOnDelete drives the first/overflow bucket split of
// the inline-first index layout: several tuples sharing one indexed value
// land in the same bucket, and removing them in various orders must keep
// probes exact (including promoting an overflow tuple to the inline slot).
func TestIndexBucketPromotionOnDelete(t *testing.T) {
	r := NewRelation("w", MustSchema("a:int", "b:int"))
	if err := r.EnsureIndexAt([]int{0}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		r.InsertDerived(NewTuple(7, b)) //nolint:errcheck
	}
	probe := func() []Tuple {
		out, indexed, err := scanEqAt(r, []int{0}, Int(7))
		if err != nil || !indexed {
			t.Fatalf("probe: indexed %v, err %v", indexed, err)
		}
		return out
	}
	remove := func(b int) {
		t.Helper()
		if removed, err := r.DecDerived(NewTuple(7, b)); !removed || err != nil {
			t.Fatalf("DecDerived (7,%d) = %v, %v", b, removed, err)
		}
	}
	if got := probe(); len(got) != 4 {
		t.Fatalf("bucket = %v, want 4 tuples", got)
	}
	// Remove the first-inserted tuple: an overflow tuple must be promoted.
	remove(0)
	if got := probe(); len(got) != 3 {
		t.Fatalf("after first removal: %v", got)
	}
	// Remove from the middle of the overflow list.
	remove(2)
	if got, want := probe(), []Tuple{NewTuple(7, 1), NewTuple(7, 3)}; !sameTuples(got, want) {
		t.Fatalf("after second removal: %v, want %v", got, want)
	}
	// Drain the bucket entirely and reinsert.
	remove(1)
	remove(3)
	if got := probe(); len(got) != 0 {
		t.Fatalf("after drain: %v", got)
	}
	r.MustInsert(7, 9)
	if got := probe(); len(got) != 1 || !got[0].Equal(NewTuple(7, 9)) {
		t.Fatalf("after reinsert: %v", got)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}
