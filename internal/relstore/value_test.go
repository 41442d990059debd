package relstore

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndTypes(t *testing.T) {
	cases := []struct {
		v    Value
		want Type
	}{
		{Null(), TypeNull},
		{Int(42), TypeInt},
		{Float(3.14), TypeFloat},
		{String("x"), TypeString},
		{Bool(true), TypeBool},
	}
	for _, c := range cases {
		if c.v.Type() != c.want {
			t.Errorf("Type() = %v, want %v", c.v.Type(), c.want)
		}
	}
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	if Int(0).IsNull() {
		t.Error("Int(0).IsNull() = true")
	}
}

func TestValueAsInt(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
		ok   bool
	}{
		{Int(7), 7, true},
		{Float(7.9), 7, true},
		{Float(-7.9), -7, true},
		{Float(-9223372036854775808), math.MinInt64, true},
		{Float(9.2e18), 9200000000000000000, true},
		{Float(9223372036854775808), 0, false},
		{Float(9.3e18), 0, false},
		{Float(1e300), 0, false},
		{Float(-1e300), 0, false},
		{Float(math.Inf(1)), 0, false},
		{Float(math.Inf(-1)), 0, false},
		{Float(math.NaN()), 0, false},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{String("123"), 123, true},
		{String("abc"), 0, false},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsInt()
		if got != c.want || ok != c.ok {
			t.Errorf("%v.AsInt() = (%d,%v), want (%d,%v)", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Errorf("Int(3).AsFloat() = %v,%v", f, ok)
	}
	if f, ok := String("2.5").AsFloat(); !ok || f != 2.5 {
		t.Errorf(`String("2.5").AsFloat() = %v,%v`, f, ok)
	}
	if _, ok := String("not a number").AsFloat(); ok {
		t.Error("expected failure parsing non-numeric string")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("NULL should not convert to float")
	}
}

func TestValueAsBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
		ok   bool
	}{
		{Bool(true), true, true},
		{Int(0), false, true},
		{Int(5), true, true},
		{Float(0), false, true},
		{String("true"), true, true},
		{String("xyz"), false, false},
		{Null(), false, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsBool()
		if got != c.want || ok != c.ok {
			t.Errorf("%v.AsBool() = (%v,%v), want (%v,%v)", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestValueAsString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{String("hi"), "hi"},
		{Bool(true), "true"},
		{Null(), ""},
	}
	for _, c := range cases {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("%v.AsString() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(3).Equal(String("3")) {
		t.Error("Int(3) should not equal String(\"3\")")
	}
	if !Null().Equal(Null()) {
		t.Error("NULL should equal NULL")
	}
	if Null().Equal(Int(0)) {
		t.Error("NULL should not equal Int(0)")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.5), -1},
		{Float(2.5), Int(2), 1},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		// NaN sorts after every other number and equals itself.
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Float(math.Inf(1)), 1},
		{Float(math.Inf(1)), Float(math.NaN()), -1},
		{Float(math.NaN()), Int(math.MaxInt64), 1},
		{Int(math.MinInt64), Float(math.NaN()), -1},
		{Float(math.NaN()), Null(), 1},
		{Float(math.NaN()), String(""), -1},
	}
	for _, c := range cases {
		got := c.a.Compare(c.b)
		if sign(got) != c.want {
			t.Errorf("%v.Compare(%v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestValueHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(3), Float(3.0)},
		{String("abc"), String("abc")},
		{Bool(true), Bool(true)},
		{Null(), Null()},
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("precondition: %v should equal %v", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values %v and %v have different hashes", p[0], p[1])
		}
	}
}

func TestValueHashPropertyEqualImpliesSameHash(t *testing.T) {
	f := func(a int64) bool {
		return Int(a).Hash() == Float(float64(a)).Hash() == Int(a).Equal(Float(float64(a)))
	}
	// The property only holds when the float64 conversion is exact; restrict
	// to the exactly representable range.
	g := func(a int32) bool {
		x, y := Int(int64(a)), Float(float64(a))
		if !x.Equal(y) {
			return false
		}
		return x.Hash() == y.Hash()
	}
	_ = f
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestValueCompareTotalOrderWithNaN checks that Compare is a total order
// over numbers that include NaN: antisymmetric, transitive, and sorting NaN
// after every other number. Sorting and exports rely on it.
func TestValueCompareTotalOrderWithNaN(t *testing.T) {
	num := func(x float64, asInt bool) Value {
		if asInt {
			return Int(int64(x))
		}
		return Float(x)
	}
	f := func(a, b, c float64, nanMask, intMask uint8) bool {
		xs := [3]float64{a, b, c}
		vs := make([]Value, 3)
		for i, x := range xs {
			if nanMask&(1<<i) != 0 {
				x = math.NaN()
			}
			vs[i] = num(x, intMask&(1<<i) != 0 && !math.IsNaN(x) && math.Abs(x) < 1<<53)
		}
		for _, x := range vs {
			if x.isNaN() && x.Compare(x) != 0 {
				return false
			}
			for _, y := range vs {
				if sign(x.Compare(y)) != -sign(y.Compare(x)) {
					return false
				}
				if x.isNaN() && !y.isNaN() && x.Compare(y) <= 0 {
					return false
				}
				for _, z := range vs {
					if x.Compare(y) <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestValueAsIntFloatRangeProperty checks AsInt on arbitrary float bit
// patterns: a float converts exactly when it is not NaN and lies in
// [-2^63, 2^63), and then to its value truncated toward zero.
func TestValueAsIntFloatRangeProperty(t *testing.T) {
	f := func(bits uint64) bool {
		x := math.Float64frombits(bits)
		n, ok := Float(x).AsInt()
		inRange := !math.IsNaN(x) && x >= -(1<<63) && x < 1<<63
		if ok != inRange {
			return false
		}
		return !ok && n == 0 || ok && float64(n) == math.Trunc(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, x := range []float64{-(1 << 63), math.Nextafter(1<<63, 0), 0.5, -0.5} {
		if !f(math.Float64bits(x)) {
			t.Errorf("AsInt(%v) breaks the range rule", x)
		}
	}
}

func TestValueComparePropertyAntisymmetric(t *testing.T) {
	g := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		return sign(x.Compare(y)) == -sign(y.Compare(x))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "float": TypeFloat, "double": TypeFloat,
		"string": TypeString, "text": TypeString, "bool": TypeBool, "BOOLEAN": TypeBool,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v,%v want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestFromGo(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{nil, Null()},
		{42, Int(42)},
		{int64(7), Int(7)},
		{int8(-8), Int(-8)},
		{int16(16), Int(16)},
		{int32(-32), Int(-32)},
		{uint(1), Int(1)},
		{uint32(32), Int(32)},
		{uint64(64), Int(64)},
		{3.5, Float(3.5)},
		{float32(1.5), Float(1.5)},
		{"hello", String("hello")},
		{true, Bool(true)},
		{Int(9), Int(9)},
	}
	for _, c := range cases {
		if got := FromGo(c.in); !got.Equal(c.want) {
			t.Errorf("FromGo(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Unsupported kinds fall back to a string rendering.
	if got := FromGo([]int{1, 2}); got.Type() != TypeString {
		t.Errorf("FromGo(slice) type = %v, want string", got.Type())
	}
}

func TestValueStringRendering(t *testing.T) {
	if Null().String() != "NULL" {
		t.Errorf("Null().String() = %q", Null().String())
	}
	if String("a").String() != `"a"` {
		t.Errorf(`String("a").String() = %q`, String("a").String())
	}
	if Int(5).String() != "5" {
		t.Errorf("Int(5).String() = %q", Int(5).String())
	}
}

func TestValueFloatSpecials(t *testing.T) {
	inf := Float(math.Inf(1))
	if inf.Hash() == Float(math.Inf(-1)).Hash() {
		t.Log("hash collision between +Inf and -Inf is allowed but unexpected")
	}
	if !inf.Equal(Float(math.Inf(1))) {
		t.Error("+Inf should equal itself")
	}
}
