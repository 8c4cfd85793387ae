package value

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Str("hi"), String, "hi"},
		{IntV(-3), Int, "-3"},
		{FloatV(2.5), Float, "2.5"},
		{BoolV(true), Bool, "true"},
		{NullV(7), Null, "_:n7"},
		{IDV("f(1)"), ID, "#f(1)"},
	}
	for _, c := range cases {
		if c.v.K != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.K, c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v String() = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	if !(Value{}).IsZero() {
		t.Error("zero value must report IsZero")
	}
	if Str("x").IsZero() {
		t.Error("non-zero value reports IsZero")
	}
	if !Str("x").IsConst() || NullV(1).IsConst() || IDV("x").IsConst() {
		t.Error("IsConst misclassifies")
	}
}

// TestCanonicalInjective is a property-based test: distinct values have
// distinct canonical forms (canonical encoding drives hash joins and Skolem
// terms, so collisions would corrupt reasoning results).
func TestCanonicalInjective(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		vs := []Value{IntV(a), IntV(b), Str(s1), Str(s2), FloatV(float64(a) / 2), BoolV(a%2 == 0), NullV(a), IDV(s1)}
		for i := range vs {
			for j := range vs {
				eq := Equal(vs[i], vs[j])
				ceq := vs[i].Canonical() == vs[j].Canonical()
				// Equal values must share canonical form; distinct canonical
				// forms must mean unequal values. (Int/Float numeric equality
				// is the one legitimate case of equal values with distinct
				// canonical forms, checked separately below.)
				if ceq && !eq {
					return false
				}
				if eq && !ceq && vs[i].K == vs[j].K {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareIsOrdering checks the ordering axioms by property: antisymmetry
// and transitivity over randomly generated values.
func TestCompareIsOrdering(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 5 {
		case 0:
			return IntV(seed / 5)
		case 1:
			return FloatV(float64(seed) / 3)
		case 2:
			return Str(string(rune('a' + seed%26)))
		case 3:
			return BoolV(seed%2 == 0)
		default:
			return NullV(seed % 17)
		}
	}
	f := func(a, b, c int64) bool {
		x, y, z := gen(a), gen(b), gen(c)
		if Compare(x, y) != -Compare(y, x) {
			return false
		}
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
			return false
		}
		return Compare(x, x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNumericCrossKindEquality(t *testing.T) {
	if !Equal(IntV(3), FloatV(3.0)) {
		t.Error("3 and 3.0 must be equal")
	}
	if Equal(IntV(3), FloatV(3.5)) {
		t.Error("3 and 3.5 must differ")
	}
	if Compare(IntV(2), FloatV(2.5)) >= 0 {
		t.Error("2 < 2.5")
	}
}

// TestIdenticalIsCanonicalEquality: Identical draws exactly the distinctions
// the canonical forms draw — kind, payload, one NaN, two zeros.
func TestIdenticalIsCanonicalEquality(t *testing.T) {
	vs := []Value{{}, IntV(1), IntV(0), FloatV(1), FloatV(0), FloatV(math.Copysign(0, -1)),
		FloatV(math.NaN()), FloatV(math.Float64frombits(0x7ff8000000000001)), FloatV(math.Inf(1)),
		Str("1"), Str(""), BoolV(true), BoolV(false), NullV(1), IDV("1"), IDV("⊥")}
	for _, a := range vs {
		for _, b := range vs {
			if got, want := Identical(a, b), a.Canonical() == b.Canonical(); got != want {
				t.Errorf("Identical(%s %s, %s %s) = %v, canonical forms equal: %v", a.K, a.Canonical(), b.K, b.Canonical(), got, want)
			}
		}
	}
	if !Equal(IntV(1), FloatV(1)) || Identical(IntV(1), FloatV(1)) {
		t.Error("Int 1 and Float 1.0 must be Equal but not Identical")
	}
}

func TestSkolemProperties(t *testing.T) {
	a := Skolem("f", Str("x"), IntV(1))
	b := Skolem("f", Str("x"), IntV(1))
	if !Equal(a, b) {
		t.Error("Skolem must be deterministic")
	}
	c := Skolem("f", Str("x"), IntV(2))
	if Equal(a, c) {
		t.Error("Skolem must be injective in its arguments")
	}
	d := Skolem("g", Str("x"), IntV(1))
	if Equal(a, d) {
		t.Error("distinct functors must have disjoint ranges")
	}
	// Nested Skolems stay injective.
	n1 := Skolem("h", a)
	n2 := Skolem("h", c)
	if Equal(n1, n2) {
		t.Error("nested Skolem collision")
	}
}

// TestSkolemNoConcatCollision guards the canonical encoding against
// concatenation ambiguity: f("ab","c") must differ from f("a","bc").
func TestSkolemNoConcatCollision(t *testing.T) {
	if Equal(Skolem("f", Str("ab"), Str("c")), Skolem("f", Str("a"), Str("bc"))) {
		t.Fatal("argument concatenation collision")
	}
	if Equal(Skolem("f", Str("1")), Skolem("f", IntV(1))) {
		t.Fatal("string/int collision in skolem args")
	}
}

// skolemOracle is the original construction of a Skolem term: the functor,
// then the argument canonical strings joined by commas, in parentheses.
// Skolem must build exactly this string, byte for byte.
func skolemOracle(functor string, args ...Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.Canonical()
	}
	return functor + "(" + strings.Join(parts, ",") + ")"
}

func TestSkolemMatchesOracle(t *testing.T) {
	nested := Skolem("inner", Str("a\"b"), IntV(-1))
	long := strings.Repeat("x", 300)
	cases := []struct {
		name    string
		functor string
		args    []Value
	}{
		{"no args", "f", nil},
		{"two ints", "f", []Value{IntV(1), IntV(2)}},
		{"negative ints", "neg", []Value{IntV(-7), IntV(math.MinInt64), IntV(math.MaxInt64)}},
		{"quotes and escapes", "s", []Value{Str(`say "hi"`), Str("tab\tnl\nbs\\"), Str("")}},
		{"unicode and invalid utf8", "u", []Value{Str("héllo ☃"), Str("\xff\xfe"), Str("a\x00b")}},
		{"floats", "fl", []Value{FloatV(0), FloatV(math.Copysign(0, -1)), FloatV(math.NaN()), FloatV(math.Inf(1)), FloatV(math.Inf(-1))}},
		{"integral and exponent floats", "fl", []Value{FloatV(1), FloatV(2.5), FloatV(1e21), FloatV(1.5e-300), FloatV(-3e7)}},
		{"bools", "b", []Value{BoolV(true), BoolV(false)}},
		{"nulls", "n", []Value{NullV(0), NullV(42), NullV(-3)}},
		{"nested ids", "outer", []Value{nested, Skolem("z", nested), IDV("")}},
		{"invalid", "inv", []Value{{}, IntV(1)}},
		{"longer than stack buffer", "longFunctorName", []Value{Str(long), Str(long), IntV(123456789)}},
		{"many args", "m", []Value{IntV(1), Str("2"), FloatV(3), BoolV(true), NullV(5), IDV("f(6)"), {}, Str(long)}},
		{"empty functor", "", []Value{IntV(1)}},
	}
	for _, c := range cases {
		got := Skolem(c.functor, c.args...)
		want := skolemOracle(c.functor, c.args...)
		if got.K != ID || got.S != want {
			t.Errorf("%s: Skolem = %v %q, want id %q", c.name, got.K, got.S, want)
		}
	}
}

// TestSkolemOneAllocation: a Skolem term over scalar arguments builds in
// one buffer, so the term string is its only allocation.
func TestSkolemOneAllocation(t *testing.T) {
	a, b := IntV(12345), IntV(-678)
	var sink Value
	allocs := testing.AllocsPerRun(100, func() { sink = Skolem("own", a, b) })
	if sink.S != "own(12345,-678)" {
		t.Fatalf("Skolem = %q", sink.S)
	}
	if allocs != 1 {
		t.Errorf("Skolem with two Int arguments allocates %.1f objects, want 1", allocs)
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Add(IntV(2), IntV(3))); got.I != 5 || got.K != Int {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Add(IntV(2), FloatV(0.5))); got.F != 2.5 {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Add(Str("a"), Str("b"))); got.S != "ab" {
		t.Errorf("a+b = %v", got)
	}
	if got := mustV(Mul(FloatV(0.5), FloatV(0.5))); got.F != 0.25 {
		t.Errorf("0.5*0.5 = %v", got)
	}
	if got := mustV(Sub(IntV(2), IntV(5))); got.I != -3 {
		t.Errorf("2-5 = %v", got)
	}
	if got := mustV(Div(IntV(7), IntV(2))); got.I != 3 {
		t.Errorf("7/2 = %v (integer division)", got)
	}
	if _, err := Div(IntV(1), IntV(0)); err == nil {
		t.Error("division by zero must fail")
	}
	if _, err := Add(BoolV(true), IntV(1)); err == nil {
		t.Error("bool arithmetic must fail")
	}
}

func TestAsIntAsFloat(t *testing.T) {
	if v, ok := FloatV(4.0).AsInt(); !ok || v != 4 {
		t.Error("4.0 should convert to int 4")
	}
	if _, ok := FloatV(4.5).AsInt(); ok {
		t.Error("4.5 is not integral")
	}
	if _, ok := FloatV(math.Inf(1)).AsInt(); ok {
		t.Error("infinity is not integral")
	}
	if _, ok := Str("4").AsFloat(); ok {
		t.Error("strings are not numeric")
	}
}

func TestParseLiteral(t *testing.T) {
	cases := map[string]Value{
		`"hi"`:  Str("hi"),
		"42":    IntV(42),
		"-1":    IntV(-1),
		"0.5":   FloatV(0.5),
		"true":  BoolV(true),
		"false": BoolV(false),
	}
	for in, want := range cases {
		got, err := ParseLiteral(in)
		if err != nil || !Equal(got, want) {
			t.Errorf("ParseLiteral(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLiteral("not a literal"); err == nil {
		t.Error("garbage must not parse")
	}
}
