// Package relstore implements an embedded relational store used as the
// storage substrate for the Crowd4U platform and its CyLog rule engine.
//
// The store provides typed schemas, tuples, relations with derivation counts
// and position-keyed hash indexes, a binary snapshot codec, and memory and
// disk-paged storage backends. It supports only the operations CyLog and the
// platform call, keeping the implementation dependency-free and
// deterministic.
package relstore

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the type of a Value stored in a relation column.
type Type int

// Supported column types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType converts a type name (as used in schema declarations and CyLog
// programs) into a Type. It returns an error for unknown names.
func ParseType(name string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "int", "integer", "long":
		return TypeInt, nil
	case "float", "double", "real":
		return TypeFloat, nil
	case "string", "text", "varchar":
		return TypeString, nil
	case "bool", "boolean":
		return TypeBool, nil
	case "null":
		return TypeNull, nil
	default:
		return TypeNull, fmt.Errorf("relstore: unknown type %q", name)
	}
}

// Value is a single typed value stored in a tuple. The zero Value is NULL.
type Value struct {
	t Type
	i int64
	f float64
	s string
	b bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{t: TypeInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{t: TypeFloat, f: v} }

// String returns a string value.
func String(v string) Value { return Value{t: TypeString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{t: TypeBool, b: v} }

// Type reports the type of the value.
func (v Value) Type() Type { return v.t }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.t == TypeNull }

// AsInt returns the value as an int64. Floats are truncated toward zero, and
// only a float in [-2^63, 2^63) converts: Go leaves int64() of a NaN or of
// an out-of-range float to the implementation. Booleans map to 0/1; strings
// are parsed when possible. The second return value reports whether the
// conversion was exact enough to be meaningful.
func (v Value) AsInt() (int64, bool) {
	switch v.t {
	case TypeInt:
		return v.i, true
	case TypeFloat:
		if math.IsNaN(v.f) || v.f < -(1<<63) || v.f >= 1<<63 {
			return 0, false
		}
		return int64(v.f), true
	case TypeBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case TypeString:
		n, err := strconv.ParseInt(v.s, 10, 64)
		return n, err == nil
	default:
		return 0, false
	}
}

// AsFloat returns the value as a float64 when a numeric interpretation exists.
func (v Value) AsFloat() (float64, bool) {
	switch v.t {
	case TypeInt:
		return float64(v.i), true
	case TypeFloat:
		return v.f, true
	case TypeBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case TypeString:
		f, err := strconv.ParseFloat(v.s, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsString returns the value rendered as a string. NULL renders as "".
func (v Value) AsString() string {
	switch v.t {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBool:
		return strconv.FormatBool(v.b)
	default:
		return ""
	}
}

// AsBool returns the value interpreted as a boolean.
func (v Value) AsBool() (bool, bool) {
	switch v.t {
	case TypeBool:
		return v.b, true
	case TypeInt:
		return v.i != 0, true
	case TypeFloat:
		return v.f != 0, true
	case TypeString:
		b, err := strconv.ParseBool(v.s)
		return b, err == nil
	default:
		return false, false
	}
}

// String implements fmt.Stringer; NULL is rendered as "NULL" and strings are
// quoted so that tuples print unambiguously.
func (v Value) String() string {
	switch v.t {
	case TypeNull:
		return "NULL"
	case TypeString:
		return strconv.Quote(v.s)
	default:
		return v.AsString()
	}
}

// Equal reports value equality. Numeric values of different types (int vs
// float) compare by numeric value, matching CyLog comparison semantics.
func (v Value) Equal(o Value) bool {
	return EqualValues(&v, &o)
}

// EqualValues is Equal through pointers: values in the engine's hot join
// loops live in slices, and passing them by value copies the full struct
// twice per comparison. Semantics are identical to Equal.
func EqualValues(v, o *Value) bool {
	if v.t == o.t {
		switch v.t {
		case TypeNull:
			return true
		case TypeInt:
			return v.i == o.i
		case TypeFloat:
			return v.f == o.f
		case TypeString:
			return v.s == o.s
		case TypeBool:
			return v.b == o.b
		}
	}
	if v.isNumeric() && o.isNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	return false
}

func (v Value) isNumeric() bool { return v.t == TypeInt || v.t == TypeFloat }

// isNaN reports whether the value is a floating-point NaN.
func (v Value) isNaN() bool { return v.t == TypeFloat && math.IsNaN(v.f) }

// Compare orders two values. NULL sorts before everything; mixed numeric types
// compare numerically, with NaN after every other number and equal to itself
// (as in PostgreSQL); otherwise values are compared within their type, and
// across incomparable types the ordering falls back to the type id so that the
// relation's ordering is total and deterministic.
func (v Value) Compare(o Value) int {
	if v.t == TypeNull || o.t == TypeNull {
		switch {
		case v.t == o.t:
			return 0
		case v.t == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if v.isNumeric() && o.isNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		case a == b, math.IsNaN(a) && math.IsNaN(b):
			return 0
		case math.IsNaN(a):
			return 1
		default:
			return -1
		}
	}
	if v.t != o.t {
		return int(v.t) - int(o.t)
	}
	switch v.t {
	case TypeString:
		return strings.Compare(v.s, o.s)
	case TypeBool:
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// FNV-1a, inlined. hash/fnv's New64a allocates a hasher per call, which made
// hashing the single largest allocator in the CyLog join loop (every index
// probe, index insert and frontier probe hashes values). These helpers fold
// bytes into a plain uint64 accumulator instead; they produce bit-identical
// digests to writing the same bytes into hash/fnv's Sum64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 folds the 8 little-endian bytes of x into h.
func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*uint(i))))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Hash returns a stable hash of the value, used by relation indexes. Values
// that are Equal hash identically (ints and equal-valued floats share the
// numeric hash path). The implementation is allocation-free: it runs once per
// probed or inserted value on the engine's hot path.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	switch {
	case v.t == TypeNull:
		h = fnvByte(h, 0)
	case v.isNumeric():
		f, _ := v.AsFloat()
		if math.IsNaN(f) {
			// All NaN payloads hash alike, matching storedEqual's NaN
			// folding (relation set semantics).
			h = fnvByte(h, 5)
		} else if f == math.Trunc(f) && !math.IsInf(f, 0) {
			// Integral values hash by their integer representation so that
			// Int(3) and Float(3.0) collide, matching Equal.
			h = fnvByte(h, 1)
			h = fnvUint64(h, uint64(int64(f)))
		} else {
			h = fnvByte(h, 2)
			h = fnvUint64(h, math.Float64bits(f))
		}
	case v.t == TypeString:
		h = fnvByte(h, 3)
		h = fnvString(h, v.s)
	case v.t == TypeBool:
		h = fnvByte(h, 4)
		if v.b {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	}
	return h
}

// FromGo converts a native Go value into a Value. Supported inputs are nil,
// bool, all integer kinds, float32/64, and string. Unsupported kinds become a
// string via fmt.Sprint so callers never lose data silently.
func FromGo(x any) Value {
	switch t := x.(type) {
	case nil:
		return Null()
	case Value:
		return t
	case bool:
		return Bool(t)
	case int:
		return Int(int64(t))
	case int8:
		return Int(int64(t))
	case int16:
		return Int(int64(t))
	case int32:
		return Int(int64(t))
	case int64:
		return Int(t)
	case uint:
		return Int(int64(t))
	case uint32:
		return Int(int64(t))
	case uint64:
		return Int(int64(t))
	case float32:
		return Float(float64(t))
	case float64:
		return Float(t)
	case string:
		return String(t)
	default:
		return String(fmt.Sprint(x))
	}
}
