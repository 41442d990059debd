package relstore

import (
	"strconv"
	"strings"
)

// Tuple is an ordered list of values. Tuples are value objects: callers must
// not mutate a tuple after handing it to a Relation.
type Tuple []Value

// NewTuple builds a tuple from native Go values using FromGo.
func NewTuple(vals ...any) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = FromGo(v)
	}
	return t
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return len(t) - len(o)
}

// Hash combines the hashes of all values. It is allocation-free; relations
// use it to bucket tuples for set semantics.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h = fnvUint64(h, v.Hash())
	}
	return h
}

// HashAt combines the hashes of the values at the given positions, using the
// same combination as HashValues over those values. It is the tuple-side
// counterpart composite indexes are built with: HashAt(t, p...) equals
// HashValues(t[p0], t[p1], ...), so external hash tables keyed on a column
// subset (e.g. the CyLog engine's delta-frontier hash) can insert tuples with
// HashAt and probe with HashValues.
func (t Tuple) HashAt(positions ...int) uint64 {
	if len(positions) == 1 {
		return t[positions[0]].Hash()
	}
	h := uint64(fnvOffset64)
	for _, p := range positions {
		h = fnvUint64(h, t[p].Hash())
	}
	return h
}

// Key returns a string key uniquely identifying the tuple contents; callers
// (join/dedupe helpers) use it for set semantics in external hash maps. Equal
// tuples produce equal keys. The key is built in a single byte buffer —
// two allocations per call regardless of arity.
func (t Tuple) Key() string {
	buf := make([]byte, 0, 12*len(t))
	for i, v := range t {
		if i > 0 {
			buf = append(buf, '\x1f')
		}
		buf = append(buf, byte('0'+int(canonicalType(v))), ':')
		buf = appendCanonical(buf, v)
	}
	return string(buf)
}

// appendCanonical appends canonicalString(v) without the intermediate string.
func appendCanonical(buf []byte, v Value) []byte {
	if v.isNumeric() {
		f, _ := v.AsFloat()
		if f == float64(int64(f)) {
			return strconv.AppendInt(buf, int64(f), 10)
		}
		return strconv.AppendFloat(buf, f, 'g', -1, 64)
	}
	return append(buf, v.AsString()...)
}

// canonicalType folds int and float into a single numeric class so that
// Int(3) and Float(3) produce the same key, matching Equal.
func canonicalType(v Value) Type {
	if v.t == TypeFloat {
		return TypeInt
	}
	return v.t
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Project returns a new tuple containing the values at the given positions.
func (t Tuple) Project(positions ...int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}
