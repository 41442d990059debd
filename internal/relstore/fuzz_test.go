package relstore

import (
	"bytes"
	"testing"
)

// fuzzSeedExport builds a small database exercising the int, string and bool
// value kinds, exported to bytes — the structurally valid seed the fuzzer
// mutates from.
func fuzzSeedExport(f *testing.F) []byte {
	f.Helper()
	d := NewDatabase()
	r, err := d.GetOrCreate("mixed", MustSchema("n:int", "s:string", "ok:bool"))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := r.Insert(NewTuple(i, "label", i%2 == 0)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := d.GetOrCreate("empty", MustSchema("x:int")); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportDatabaseBinary(d, nil, &buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzImportDatabaseBinary asserts the codec's robustness contract: no input
// — truncated, bit-flipped, adversarial length fields, wrong magic — may
// ever panic or wedge the importer; corruption must surface as an error.
// Inputs that do import must round-trip: re-exporting the imported state and
// importing again yields the same relations (the decoded state is always
// internally consistent, never half-applied garbage that the exporter then
// chokes on).
func FuzzImportDatabaseBinary(f *testing.F) {
	seed := fuzzSeedExport(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("RSB2"))
	f.Add([]byte("RSB1"))
	// Exports write RSB1, so a hand-built RSB2 snapshot seeds the path that
	// reads past the legacy statistics section.
	legacy, _, _ := legacySnapshot(7)
	f.Add(legacy)
	f.Add(seed[:len(seed)/2])
	// Flip a byte inside the tuple area.
	mut := append([]byte(nil), seed...)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)
	// A huge claimed count with no data behind it.
	f.Add(append(append([]byte(nil), seed[:8]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDatabase()
		names, err := ImportDatabaseBinary(d, bytes.NewReader(data))
		if err != nil {
			return
		}
		// Successful import must leave an exportable, re-importable database.
		var buf bytes.Buffer
		if err := ExportDatabaseBinary(d, names, &buf); err != nil {
			t.Fatalf("imported database failed to re-export: %v", err)
		}
		d2 := NewDatabase()
		names2, err := ImportDatabaseBinary(d2, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-exported database failed to import: %v", err)
		}
		if len(names2) != len(names) {
			t.Fatalf("round-trip changed relation count: %d vs %d", len(names2), len(names))
		}
		for _, n := range names {
			r1, r2 := d.Relation(n), d2.Relation(n)
			if r2 == nil {
				t.Fatalf("round-trip lost relation %q", n)
			}
			if r1.Len() != r2.Len() {
				t.Fatalf("relation %q: %d tuples vs %d after round-trip", n, r1.Len(), r2.Len())
			}
		}
	})
}
