package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// MustSchema builds a schema from "name:type" strings, e.g. "id:int",
// "name:string", and panics on malformed specs.
func MustSchema(specs ...string) *Schema {
	cols := make([]Column, 0, len(specs))
	for _, sp := range specs {
		name, typ, ok := strings.Cut(sp, ":")
		if !ok {
			panic(fmt.Sprintf("relstore: malformed column spec %q (want name:type)", sp))
		}
		t, err := ParseType(typ)
		if err != nil {
			panic(err)
		}
		cols = append(cols, Column{Name: strings.TrimSpace(name), Type: t})
	}
	return NewSchema(cols...)
}

// MustInsert inserts a tuple built from native Go values with base support
// and panics on a schema mismatch.
func (r *Relation) MustInsert(vals ...any) bool {
	ok, err := r.Insert(NewTuple(vals...))
	if err != nil {
		panic(err)
	}
	return ok
}

// MustCreate adds a new empty relation and panics when the name is taken.
func (d *Database) MustCreate(name string, schema *Schema) *Relation {
	if d.Relation(name) != nil {
		panic(fmt.Sprintf("relstore: relation %q already exists", name))
	}
	r, err := d.GetOrCreate(name, schema)
	if err != nil {
		panic(err)
	}
	return r
}

// contains reports whether a tuple equal to t is stored.
func contains(r *Relation, t Tuple) bool {
	_, _, ok := r.Support(t)
	return ok
}

// scanEqAt collects the tuples ScanEqAt yields, sorted, and whether an index
// answered.
func scanEqAt(r *Relation, positions []int, vals ...Value) ([]Tuple, bool, error) {
	var out []Tuple
	indexed, err := r.ScanEqAt(positions, vals, func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, indexed, err
}
