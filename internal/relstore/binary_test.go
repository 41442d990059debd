package relstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestValueBinaryRoundTrip(t *testing.T) {
	values := []Value{
		Null(),
		Int(0), Int(42), Int(-7), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(3.25), Float(-1e300), Float(math.Inf(1)),
		String(""), String("hello"), String(strings.Repeat("x", 1000)), String("uni\x00code\xff"),
		Bool(true), Bool(false),
	}
	var buf []byte
	for _, v := range values {
		buf = AppendValueBinary(buf, v)
	}
	off := 0
	for i, want := range values {
		got, n, err := DecodeValueBinary(buf[off:])
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.Type() != want.Type() || !got.Equal(want) {
			t.Fatalf("value %d: got %v want %v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestValueBinaryNaN(t *testing.T) {
	buf := AppendValueBinary(nil, Float(math.NaN()))
	got, _, err := DecodeValueBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := got.AsFloat(); !math.IsNaN(f) {
		t.Fatalf("got %v, want NaN", got)
	}
}

func TestValueBinaryErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"unknown type":     {99},
		"truncated float":  {byte(TypeFloat), 1, 2, 3},
		"truncated string": append([]byte{byte(TypeString)}, 200, 1),
		"truncated bool":   {byte(TypeBool)},
		"bad varint":       append([]byte{byte(TypeInt)}, bytes.Repeat([]byte{0x80}, 11)...),
	}
	for name, data := range cases {
		if _, _, err := DecodeValueBinary(data); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}

func TestTupleBinaryRoundTrip(t *testing.T) {
	want := NewTuple(int64(1), "two", 3.5, true, nil)
	buf := AppendTupleBinary(nil, want)
	got, n, err := DecodeTupleBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || !got.Equal(want) {
		t.Fatalf("got %v (%d bytes), want %v (%d bytes)", got, n, want, len(buf))
	}
	if _, _, err := DecodeTupleBinary([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("absurd arity: want error")
	}
}

func TestRelationBinaryRoundTrip(t *testing.T) {
	d := NewDatabase()
	r := d.MustCreate("people", MustSchema("id:int", "name:string", "score:float", "ok:bool"))
	r.MustInsert(1, "ada", 9.5, true)
	r.MustInsert(2, "bob", 7.25, false)
	r.MustInsert(3, "eve", 0.0, true)

	var buf bytes.Buffer
	if err := ExportBinary(r, &buf); err != nil {
		t.Fatal(err)
	}
	d2 := NewDatabase()
	got, err := ImportBinary(d2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "people" || !got.Schema().Equal(r.Schema()) {
		t.Fatalf("restored %s %s, want people %s", got.Name(), got.Schema(), r.Schema())
	}
	wantAll, gotAll := r.All(), got.All()
	if len(gotAll) != len(wantAll) {
		t.Fatalf("restored %d tuples, want %d", len(gotAll), len(wantAll))
	}
	for i := range wantAll {
		if !gotAll[i].Equal(wantAll[i]) {
			t.Fatalf("tuple %d: got %v want %v", i, gotAll[i], wantAll[i])
		}
	}
}

func TestRelationBinaryDeterministic(t *testing.T) {
	// Equal contents inserted in different orders must export byte-identically
	// (the WAL diffs snapshot bytes in tests and dedupes on content).
	build := func(order []int) *Relation {
		r := NewRelation("t", MustSchema("a:int", "b:string"))
		for _, i := range order {
			r.MustInsert(i, "v")
		}
		return r
	}
	var b1, b2 bytes.Buffer
	if err := ExportBinary(build([]int{1, 2, 3, 4}), &b1); err != nil {
		t.Fatal(err)
	}
	if err := ExportBinary(build([]int{4, 3, 2, 1}), &b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("exports of equal contents differ")
	}
}

// TestRelationBinaryDeterministicWithNaN exports a float relation holding a
// NaN over and over: Compare orders NaN after every number, so the sorted
// export cannot depend on the map iteration order that feeds the sort.
func TestRelationBinaryDeterministicWithNaN(t *testing.T) {
	r := NewRelation("f", MustSchema("x:float"))
	r.MustInsert(math.NaN())
	for i := 0; i < 40; i++ {
		r.MustInsert(float64(i))
	}
	var first bytes.Buffer
	if err := ExportBinary(r, &first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		var again bytes.Buffer
		if err := ExportBinary(r, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("export %d differs from the first", i+2)
		}
	}
	all := r.All()
	if last := all[len(all)-1]; !last[0].isNaN() {
		t.Fatalf("All ends with %v, want the NaN last", last)
	}
}

func TestRelationBinarySupportRoundTrip(t *testing.T) {
	d := NewDatabase()
	r := d.MustCreate("facts", MustSchema("x:int"))
	r.MustInsert(1) // base only
	if _, err := r.InsertDerived(NewTuple(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InsertDerived(NewTuple(2)); err != nil {
		t.Fatal(err)
	}
	r.MustInsert(3) // base + derived
	if _, err := r.InsertDerived(NewTuple(3)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ExportBinary(r, &buf); err != nil {
		t.Fatal(err)
	}
	d2 := NewDatabase()
	got, err := ImportBinary(d2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x       int
		base    bool
		derived int
	}{{1, true, 0}, {2, false, 2}, {3, true, 1}} {
		base, derived, ok := got.Support(NewTuple(tc.x))
		if !ok || base != tc.base || derived != tc.derived {
			t.Fatalf("Support(%d) = (%v,%d,%v), want (%v,%d,true)", tc.x, base, derived, ok, tc.base, tc.derived)
		}
	}
	// ClearDerived must behave exactly like on the original: only the
	// derived-only tuple leaves.
	if removed := got.ClearDerived(); removed != 1 {
		t.Fatalf("ClearDerived removed %d, want 1", removed)
	}
	if got.Len() != 2 {
		t.Fatalf("after ClearDerived len = %d, want 2", got.Len())
	}
}

func TestDatabaseBinaryRoundTrip(t *testing.T) {
	d := NewDatabase()
	a := d.MustCreate("alpha", MustSchema("x:int"))
	b := d.MustCreate("beta", MustSchema("s:string", "f:float"))
	a.MustInsert(1)
	a.MustInsert(2)
	b.MustInsert("one", 1.0)

	var buf bytes.Buffer
	if err := ExportDatabaseBinary(d, nil, &buf); err != nil {
		t.Fatal(err)
	}
	d2 := NewDatabase()
	names, err := ImportDatabaseBinary(d2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("imported %v, want [alpha beta]", names)
	}
	if d2.Relation("alpha").Len() != 2 || d2.Relation("beta").Len() != 1 {
		t.Fatalf("restored sizes %d/%d, want 2/1", d2.Relation("alpha").Len(), d2.Relation("beta").Len())
	}
}

func TestDatabaseBinarySubsetAndMissing(t *testing.T) {
	d := NewDatabase()
	d.MustCreate("keep", MustSchema("x:int")).MustInsert(1)
	d.MustCreate("skip", MustSchema("x:int")).MustInsert(2)

	var buf bytes.Buffer
	if err := ExportDatabaseBinary(d, []string{"keep"}, &buf); err != nil {
		t.Fatal(err)
	}
	d2 := NewDatabase()
	names, err := ImportDatabaseBinary(d2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "keep" || d2.Relation("skip") != nil {
		t.Fatalf("imported %v, want only keep", names)
	}
	if err := ExportDatabaseBinary(d, []string{"absent"}, &bytes.Buffer{}); err == nil {
		t.Fatal("exporting a missing relation: want error")
	}
}

func TestDatabaseBinaryImportErrors(t *testing.T) {
	d := NewDatabase()
	d.MustCreate("r", MustSchema("x:int")).MustInsert(1)
	var buf bytes.Buffer
	if err := ExportDatabaseBinary(d, nil, &buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte("XXXX"), full[4:]...)
		if _, err := ImportDatabaseBinary(NewDatabase(), bytes.NewReader(data)); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{3, 5, len(full) - 1} {
			if _, err := ImportDatabaseBinary(NewDatabase(), bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("truncation at %d: want error", cut)
			}
		}
	})
	t.Run("schema conflict", func(t *testing.T) {
		d2 := NewDatabase()
		d2.MustCreate("r", MustSchema("x:string"))
		if _, err := ImportDatabaseBinary(d2, bytes.NewReader(full)); err == nil {
			t.Fatal("want schema-conflict error")
		}
	})
	t.Run("unknown column type", func(t *testing.T) {
		// Single-relation payload with a corrupt column type byte.
		var rbuf bytes.Buffer
		if err := ExportBinary(d.Relation("r"), &rbuf); err != nil {
			t.Fatal(err)
		}
		data := rbuf.Bytes()
		// Layout: len("r")=1, 'r', arity=1, len("x")=1, 'x', typeByte.
		data[5] = 99
		if _, err := ImportBinary(NewDatabase(), bytes.NewReader(data)); err == nil {
			t.Fatal("want unknown-type error")
		}
	})
}

// TestImportTruncatedStream cuts a valid database export at every byte
// offset: each strict prefix must fail to import, through the codec and
// through both backends' ImportSnapshot, and never panic.
func TestImportTruncatedStream(t *testing.T) {
	d := NewDatabase()
	r := d.MustCreate("mixed", MustSchema("n:int", "f:float", "s:string", "ok:bool", "z:int"))
	r.MustInsert(1, 2.5, "label", true, nil)
	r.InsertDerived(NewTuple(2, -1.5, "", false, 7)) //nolint:errcheck
	r.InsertDerived(NewTuple(2, -1.5, "", false, 7)) //nolint:errcheck
	d.MustCreate("empty", MustSchema("x:int"))
	var buf bytes.Buffer
	if err := ExportDatabaseBinary(d, nil, &buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	dir := t.TempDir()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ImportDatabaseBinary(NewDatabase(), bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("ImportDatabaseBinary of %d/%d bytes: want error", cut, len(full))
		}
		if _, err := NewDatabase().ImportSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("memory ImportSnapshot of %d/%d bytes: want error", cut, len(full))
		}
		b, err := NewDiskBackend(DiskOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewDatabaseWith(b).ImportSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("disk ImportSnapshot of %d/%d bytes: want error", cut, len(full))
		}
	}
	// The whole stream imports, support records included.
	got := NewDatabase()
	if _, err := ImportDatabaseBinary(got, bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	if _, derived, ok := got.Relation("mixed").Support(NewTuple(2, -1.5, "", false, 7)); !ok || derived != 2 {
		t.Errorf("imported derivation count = %d (found %v), want 2", derived, ok)
	}
}

// legacySnapshot hand-builds an RSB2 database export, the envelope written
// while relations kept planner statistics: each relation header carries a
// statistics section (epoch, row marker, one distinct marker per column)
// between its columns and its tuple count. The section spans
// data[statsStart:statsEnd].
func legacySnapshot(epoch uint64) (data []byte, statsStart, statsEnd int) {
	data = append(data, binaryMagicLegacy...)
	data = append(data, 1) // relation count
	data = appendString(data, "legacy")
	data = append(data, 2) // arity
	data = appendString(data, "n")
	data = append(data, byte(TypeInt))
	data = appendString(data, "s")
	data = append(data, byte(TypeString))
	statsStart = len(data)
	data = binary.AppendUvarint(data, epoch)
	data = append(data, 3, 3, 2) // row marker, distinct markers of n and s
	statsEnd = len(data)
	data = append(data, 3) // tuple count
	data = append(data, 1) // flags: base
	data = AppendValueBinary(data, Int(1))
	data = AppendValueBinary(data, String("a"))
	data = append(data, 2, 3) // flags: derived, derivation count 3
	data = AppendValueBinary(data, Int(2))
	data = AppendValueBinary(data, String("b"))
	data = append(data, 3, 2) // flags: base and derived, derivation count 2
	data = AppendValueBinary(data, Int(3))
	data = AppendValueBinary(data, String("b"))
	return data, statsStart, statsEnd
}

// TestImportSnapshotLegacyAndCorrupt drives both backends' ImportSnapshot
// through a hand-built RSB1 envelope, the legacy RSB2 envelope and corrupt
// envelopes.
func TestImportSnapshotLegacyAndCorrupt(t *testing.T) {
	// An RSB1 relation payload has no stats section: name, arity, one column,
	// tuple count, then flags and values.
	var v1 []byte
	v1 = append(v1, binaryMagic...)
	v1 = append(v1, 1)             // relation count
	v1 = appendString(v1, "old")   // relation name
	v1 = append(v1, 1)             // arity
	v1 = appendString(v1, "x")     // column name
	v1 = append(v1, byte(TypeInt)) // column type
	v1 = append(v1, 1)             // tuple count
	v1 = append(v1, 1)             // flags: base
	v1 = AppendValueBinary(v1, Int(42))
	for _, v := range backendVariants() {
		t.Run(v.name, func(t *testing.T) {
			d := v.open(t)
			names, err := d.ImportSnapshot(bytes.NewReader(v1))
			if err != nil || len(names) != 1 || names[0] != "old" {
				t.Fatalf("RSB1 import = %v, %v", names, err)
			}
			if !contains(d.Relation("old"), NewTuple(42)) {
				t.Error("RSB1 tuple missing after import")
			}
			v2, statsStart, statsEnd := legacySnapshot(7)
			names, err = d.ImportSnapshot(bytes.NewReader(v2))
			if err != nil || len(names) != 1 || names[0] != "legacy" {
				t.Fatalf("RSB2 import = %v, %v", names, err)
			}
			rel := d.Relation("legacy")
			for _, want := range []struct {
				t       Tuple
				base    bool
				derived int
			}{
				{NewTuple(1, "a"), true, 0},
				{NewTuple(2, "b"), false, 3},
				{NewTuple(3, "b"), true, 2},
			} {
				base, derived, ok := rel.Support(want.t)
				if !ok || base != want.base || derived != want.derived {
					t.Errorf("RSB2 %v support = (%v, %d, %v), want (%v, %d, true)", want.t, base, derived, ok, want.base, want.derived)
				}
			}
			if rel.Len() != 3 {
				t.Errorf("RSB2 import holds %d tuples, want 3", rel.Len())
			}
			for cut := statsStart; cut < statsEnd; cut++ {
				if _, err := v.open(t).ImportSnapshot(bytes.NewReader(v2[:cut])); err == nil {
					t.Errorf("RSB2 cut at %d inside the statistics section: want error", cut)
				}
			}
			pastCap, _, _ := legacySnapshot(1<<40 + 1)
			for name, data := range map[string][]byte{
				"bad magic":              []byte("RSB9\x00"),
				"huge count":             append([]byte(binaryMagic), 0xff, 0xff, 0xff, 0xff, 0x0f),
				"unknown col type":       append(append([]byte(nil), v1[:len(v1)-5]...), 99),
				"statistic past its cap": pastCap,
			} {
				if _, err := v.open(t).ImportSnapshot(bytes.NewReader(data)); err == nil {
					t.Errorf("%s: want error", name)
				}
			}
		})
	}
}
