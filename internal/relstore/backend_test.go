package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// backendVariant opens a fresh database on one backend configuration. The
// maintain hook drives the backend's policy at the points a real caller
// would (after a batch of mutations); for the tiny-budget disk variant it
// forces actual evictions, so every conformance check below also runs
// against relations that have been paged out and faulted back in.
type backendVariant struct {
	name string
	open func(t *testing.T) *Database
}

func backendVariants() []backendVariant {
	return []backendVariant{
		{"memory", func(t *testing.T) *Database { return NewDatabase() }},
		{"disk", func(t *testing.T) *Database {
			b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			return NewDatabaseWith(b)
		}},
		{"disk-tiny", func(t *testing.T) *Database {
			// A budget far below one relation's footprint: every Maintain
			// call evicts everything not in the current working set.
			b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			return NewDatabaseWith(b)
		}},
	}
}

// maintain runs the backend policy and fails the test on error.
func maintain(t *testing.T, d *Database) {
	t.Helper()
	if err := d.Backend().Maintain(); err != nil {
		t.Fatal(err)
	}
}

func TestBackendConformanceInsertAndScan(t *testing.T) {
	for _, v := range backendVariants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.open(t)
			r := d.MustCreate("people", MustSchema("id:int", "name:string"))
			r.MustInsert(1, "ada")
			r.MustInsert(2, "bob")
			if dup, err := r.Insert(NewTuple(1, "ada")); err != nil || dup {
				t.Fatalf("duplicate insert = (%v, %v), want (false, nil)", dup, err)
			}
			maintain(t, d)
			if got := r.Len(); got != 2 {
				t.Fatalf("Len = %d, want 2", got)
			}
			if !contains(r, NewTuple(2, "bob")) {
				t.Fatal("Support(2, bob) found nothing after maintain")
			}
			var seen int
			r.Scan(func(Tuple) bool { seen++; return true })
			if seen != 2 {
				t.Fatalf("Scan visited %d tuples, want 2", seen)
			}
		})
	}
}

func TestBackendConformanceDerivedSupport(t *testing.T) {
	for _, v := range backendVariants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.open(t)
			r := d.MustCreate("facts", MustSchema("x:int"))
			r.MustInsert(1)
			if _, err := r.InsertDerived(NewTuple(2)); err != nil {
				t.Fatal(err)
			}
			if _, err := r.InsertDerived(NewTuple(2)); err != nil {
				t.Fatal(err)
			}
			r.MustInsert(3)
			if _, err := r.InsertDerived(NewTuple(3)); err != nil {
				t.Fatal(err)
			}
			maintain(t, d)
			for _, tc := range []struct {
				x       int
				base    bool
				derived int
			}{{1, true, 0}, {2, false, 2}, {3, true, 1}} {
				base, derived, ok := r.Support(NewTuple(tc.x))
				if !ok || base != tc.base || derived != tc.derived {
					t.Fatalf("Support(%d) = (%v,%d,%v), want (%v,%d,true)", tc.x, base, derived, ok, tc.base, tc.derived)
				}
			}
			maintain(t, d)
			if removed := r.ClearDerived(); removed != 1 {
				t.Fatalf("ClearDerived removed %d, want 1", removed)
			}
			if r.Len() != 2 {
				t.Fatalf("Len after ClearDerived = %d, want 2", r.Len())
			}
		})
	}
}

func TestBackendConformanceIndexes(t *testing.T) {
	for _, v := range backendVariants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.open(t)
			r := d.MustCreate("edge", MustSchema("a:int", "b:int"))
			if err := r.EnsureIndexAt([]int{0}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				r.MustInsert(i%5, i)
			}
			maintain(t, d)
			// The index must survive an evict/fault cycle: definitions are
			// kept, postings rebuilt from the faulted contents.
			if !r.HasIndexAt([]int{0}) {
				t.Fatal("index on column 0 lost after maintain")
			}
			var hits int
			if _, err := r.ScanEqAt([]int{0}, []Value{Int(3)}, func(Tuple) bool { hits++; return true }); err != nil {
				t.Fatal(err)
			}
			if hits != 4 {
				t.Fatalf("ScanEqAt(a=3) found %d rows, want 4", hits)
			}
		})
	}
}

func TestBackendConformanceStats(t *testing.T) {
	for _, v := range backendVariants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.open(t)
			r := d.MustCreate("tags", MustSchema("n:int", "label:string"))
			for i := 0; i < 12; i++ {
				r.MustInsert(i, fmt.Sprintf("label-%d", i%4))
			}
			maintain(t, d)
			labels := make(map[string]bool)
			r.Scan(func(tu Tuple) bool {
				labels[tu[1].AsString()] = true
				return true
			})
			if len(labels) != 4 {
				t.Fatalf("%d distinct labels after maintain, want 4", len(labels))
			}
			maintain(t, d)
			if got := r.Len(); got != 12 {
				t.Fatalf("Len = %d, want 12", got)
			}
		})
	}
}

// TestBackendConformanceBinaryRoundTrip proves the relation-level binary
// codec is backend-agnostic: export from any backend, import into any other,
// contents equal and the export bytes identical.
func TestBackendConformanceBinaryRoundTrip(t *testing.T) {
	variants := backendVariants()
	exports := make(map[string][]byte)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			d := v.open(t)
			r := d.MustCreate("people", MustSchema("id:int", "name:string"))
			for i := 0; i < 30; i++ {
				r.MustInsert(i, fmt.Sprintf("name-%d", i))
			}
			maintain(t, d)
			var buf bytes.Buffer
			if err := ExportBinary(r, &buf); err != nil {
				t.Fatal(err)
			}
			exports[v.name] = buf.Bytes()

			for _, dst := range variants {
				dd := dst.open(t)
				got, err := ImportBinary(dd, bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("import into %s: %v", dst.name, err)
				}
				if got.Len() != 30 {
					t.Fatalf("import into %s: %d rows, want 30", dst.name, got.Len())
				}
			}
		})
	}
	want := exports["memory"]
	for name, got := range exports {
		if !bytes.Equal(got, want) {
			t.Fatalf("export bytes from %s differ from memory backend", name)
		}
	}
}

// TestBackendConformanceSnapshot proves database-level snapshots are
// byte-identical across backends for equal contents — including when the
// disk backend streams paged-out relations straight from their segments —
// and that each backend can import the other's snapshot.
func TestBackendConformanceSnapshot(t *testing.T) {
	build := func(t *testing.T, v backendVariant) (*Database, []byte) {
		d := v.open(t)
		for ri := 0; ri < 4; ri++ {
			r := d.MustCreate(fmt.Sprintf("rel%d", ri), MustSchema("x:int", "s:string"))
			for i := 0; i < 50; i++ {
				r.MustInsert(i, fmt.Sprintf("row-%d-%d", ri, i))
			}
		}
		maintain(t, d)
		var buf bytes.Buffer
		if err := d.ExportSnapshot(nil, &buf); err != nil {
			t.Fatal(err)
		}
		return d, buf.Bytes()
	}
	variants := backendVariants()
	snaps := make(map[string][]byte)
	for _, v := range variants {
		_, snap := build(t, v)
		snaps[v.name] = snap
	}
	want := snaps["memory"]
	for name, got := range snaps {
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot bytes from %s differ from memory backend (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	for _, dst := range variants {
		d := dst.open(t)
		names, err := d.ImportSnapshot(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("import into %s: %v", dst.name, err)
		}
		if len(names) != 4 {
			t.Fatalf("import into %s restored %d relations, want 4", dst.name, len(names))
		}
		for ri := 0; ri < 4; ri++ {
			r := d.Relation(fmt.Sprintf("rel%d", ri))
			if r == nil || r.Len() != 50 {
				t.Fatalf("import into %s: rel%d missing or wrong size", dst.name, ri)
			}
		}
	}
}

func TestMemoryBackendStats(t *testing.T) {
	d := NewDatabase()
	d.MustCreate("a", MustSchema("x:int"))
	d.MustCreate("b", MustSchema("x:int"))
	d.Backend().MarkVolatile("a") // nothing pages, so this changes nothing
	s := d.Backend().Stats()
	if s.Backend != "memory" || s.Relations != 2 || s.ResidentRelations != 2 {
		t.Fatalf("stats = %+v, want memory backend with 2 resident relations", s)
	}
	if err := d.Backend().Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("attaching a backend to a second database must panic")
		}
	}()
	NewDatabaseWith(d.Backend())
}

// walkBytes is the size estimate approxBytes keeps by counting, computed the
// slow way: a walk of every stored tuple plus the index term. Like
// approxBytes it bypasses page(), so a paged-out relation sizes to 0.
func walkBytes(r *Relation) int64 {
	const indexOverhead = 40
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b int64
	r.forEachLocked(func(t Tuple) bool {
		b += estimateTupleBytes(t)
		return true
	})
	return b + int64(r.count*len(r.indexes))*indexOverhead
}

// TestApproxBytesMatchesWalk applies random insert, derived-insert,
// DecDerived, ClearDerived, Clear, index, evict and fault steps to two
// relations on every backend variant, and requires each relation's counted
// estimate to equal the walk after every step. The disk backend picks its
// eviction victims from these estimates, so equal estimates mean the same
// evictions as sizing by a walk.
func TestApproxBytesMatchesWalk(t *testing.T) {
	for _, v := range backendVariants() {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			d := v.open(t)
			rels := []*Relation{
				d.MustCreate("a", MustSchema("id:int", "name:string")),
				d.MustCreate("b", MustSchema("id:int", "name:string")),
			}
			tuple := func() Tuple {
				n := rng.Intn(40)
				return NewTuple(n, fmt.Sprintf("name-%d-%s", n, string(make([]byte, n%7))))
			}
			for step := 0; step < 600; step++ {
				r := rels[rng.Intn(len(rels))]
				op := rng.Intn(10)
				switch op {
				case 0, 1:
					if _, err := r.Insert(tuple()); err != nil {
						t.Fatal(err)
					}
				case 2, 3:
					if _, err := r.InsertDerived(tuple()); err != nil {
						t.Fatal(err)
					}
				case 4, 5:
					tp := tuple()
					if _, derived, ok := r.Support(tp); ok && derived > 0 {
						if _, err := r.DecDerived(tp); err != nil {
							t.Fatal(err)
						}
					}
				case 6:
					if rng.Intn(4) == 0 {
						r.ClearDerived()
					} else {
						r.Clear()
					}
				case 7:
					if err := r.EnsureIndexAt([]int{rng.Intn(2)}); err != nil {
						t.Fatal(err)
					}
				case 8:
					maintain(t, d) // evicts on the tiny-budget disk variant
				case 9:
					r.Len() // faults a paged-out relation back in
				}
				for _, r := range rels {
					if got, want := r.approxBytes(), walkBytes(r); got != want {
						t.Fatalf("step %d (op %d): %s approxBytes = %d, the walk gives %d", step, op, r.Name(), got, want)
					}
				}
			}
			if v.name == "disk-tiny" && d.Backend().Stats().Evictions == 0 {
				t.Fatal("the tiny-budget disk variant never evicted")
			}
		})
	}
}
