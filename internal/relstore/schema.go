package relstore

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns; the store addresses them by
// position. Column names are case-sensitive and must be unique within a
// schema.
type Schema struct {
	cols []Column
}

// NewSchema builds a schema from the given columns. It panics if a column name
// is duplicated or empty, because schemas are always constructed from static
// program definitions and an invalid schema is a programming error.
func NewSchema(cols ...Column) *Schema {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			panic("relstore: empty column name")
		}
		if seen[c.Name] {
			panic(fmt.Sprintf("relstore: duplicate column %q", c.Name))
		}
		seen[c.Name] = true
	}
	return &Schema{cols: append([]Column(nil), cols...)}
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.cols) }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Equal reports whether two schemas have identical column names and types in
// the same order.
func (s *Schema) Equal(o *Schema) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name type, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Coerce returns a copy of the tuple with every value converted to the
// declared column type (NULLs are preserved). It returns an error when a value
// cannot be represented in the column type.
func (s *Schema) Coerce(t Tuple) (Tuple, error) {
	if len(t) != len(s.cols) {
		return nil, fmt.Errorf("relstore: tuple arity %d does not match schema arity %d", len(t), len(s.cols))
	}
	// Fast path: a tuple whose values already carry the declared types needs
	// no conversion — every case below is the identity for an exact-type
	// value. Returning t unchanged (tuples are immutable by contract) spares
	// a copy per inserted tuple on the CyLog merge path, where rule heads
	// always produce exact-typed values.
	exact := true
	for i, v := range t {
		if v.t != TypeNull && v.t != s.cols[i].Type {
			exact = false
			break
		}
	}
	if exact {
		return t, nil
	}
	out := make(Tuple, len(t))
	for i, v := range t {
		if v.IsNull() {
			out[i] = v
			continue
		}
		switch s.cols[i].Type {
		case TypeInt:
			n, ok := v.AsInt()
			if !ok {
				return nil, fmt.Errorf("relstore: cannot coerce %s to int for column %q", v, s.cols[i].Name)
			}
			out[i] = Int(n)
		case TypeFloat:
			f, ok := v.AsFloat()
			if !ok {
				return nil, fmt.Errorf("relstore: cannot coerce %s to float for column %q", v, s.cols[i].Name)
			}
			out[i] = Float(f)
		case TypeString:
			out[i] = String(v.AsString())
		case TypeBool:
			b, ok := v.AsBool()
			if !ok {
				return nil, fmt.Errorf("relstore: cannot coerce %s to bool for column %q", v, s.cols[i].Name)
			}
			out[i] = Bool(b)
		default:
			out[i] = v
		}
	}
	return out, nil
}
