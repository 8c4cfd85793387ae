// Package value defines the scalar value domain shared by the property-graph
// store and the Vadalog/MetaLog reasoning engine.
//
// The domain follows the paper's relational foundations (Section 4): constants
// C, labeled nulls N, and the Skolem identifier set I (disjoint from C and N)
// used by linker Skolem functors. Values are comparable Go structs so they can
// be used directly as map keys in join indexes and deduplication tables.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the value domain a Value belongs to.
type Kind uint8

// The kinds of values. String, Int, Float and Bool are the constant domain C.
// Null is the labeled-null domain N produced by existential quantification.
// ID is the Skolem identifier domain I produced by linker Skolem functors,
// which the paper requires to be disjoint from C and N.
const (
	Invalid Kind = iota
	String
	Int
	Float
	Bool
	Null
	ID
)

func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Null:
		return "null"
	case ID:
		return "id"
	default:
		return "invalid"
	}
}

// Value is a scalar in C ∪ N ∪ I. The zero Value has Kind Invalid.
//
// Value is comparable: two Values are equal under == exactly when they denote
// the same domain element. Labeled nulls compare by their label (N field);
// Skolem identifiers compare by their canonical string form (S field).
type Value struct {
	K Kind
	S string  // String payload, or canonical Skolem term for ID
	I int64   // Int payload, or null label for Null
	F float64 // Float payload
	B bool    // Bool payload
}

// Str returns a string constant.
func Str(s string) Value { return Value{K: String, S: s} }

// IntV returns an integer constant.
func IntV(i int64) Value { return Value{K: Int, I: i} }

// FloatV returns a floating-point constant.
func FloatV(f float64) Value { return Value{K: Float, F: f} }

// BoolV returns a boolean constant.
func BoolV(b bool) Value { return Value{K: Bool, B: b} }

// NullV returns the labeled null with the given label.
func NullV(label int64) Value { return Value{K: Null, I: label} }

// IDV returns a Skolem identifier with the given canonical term string.
func IDV(term string) Value { return Value{K: ID, S: term} }

// Skolem builds an identifier in I by applying the named functor to the given
// argument values. Functors are injective and deterministic: equal functor
// names and argument tuples always yield the same identifier, and distinct
// functors have disjoint ranges (the functor name is part of the canonical
// term).
//
// The term is appended into one buffer, on the stack while it fits, so the
// term string is the only allocation.
func Skolem(functor string, args ...Value) Value {
	var stack [128]byte
	b := append(stack[:0], functor...)
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = a.AppendCanonical(b)
	}
	b = append(b, ')')
	return Value{K: ID, S: string(b)}
}

// IsZero reports whether v is the zero (Invalid) Value.
func (v Value) IsZero() bool { return v.K == Invalid }

// IsConst reports whether v belongs to the constant domain C.
func (v Value) IsConst() bool {
	return v.K == String || v.K == Int || v.K == Float || v.K == Bool
}

// AppendCanonical appends the canonical form of v to buf, avoiding the
// intermediate string of Canonical. It is the hot path of the reasoning
// engine's join keys.
func (v Value) AppendCanonical(buf []byte) []byte {
	switch v.K {
	case String:
		return strconv.AppendQuote(buf, v.S)
	case Int:
		return strconv.AppendInt(buf, v.I, 10)
	case Float:
		buf = append(buf, 'f')
		return strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	case Bool:
		if v.B {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case Null:
		buf = append(buf, "_:n"...)
		return strconv.AppendInt(buf, v.I, 10)
	case ID:
		buf = append(buf, '#')
		return append(buf, v.S...)
	default:
		return append(buf, "<invalid>"...)
	}
}

// Canonical returns an unambiguous textual form of v, suitable for use inside
// Skolem terms and hash keys. Distinct values always have distinct canonical
// forms across kinds.
func (v Value) Canonical() string {
	switch v.K {
	case String:
		return strconv.Quote(v.S)
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return "f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case Bool:
		if v.B {
			return "true"
		}
		return "false"
	case Null:
		return "_:n" + strconv.FormatInt(v.I, 10)
	case ID:
		return "#" + v.S
	default:
		return "<invalid>"
	}
}

// String renders v for human consumption (error messages, rendered tables).
func (v Value) String() string {
	switch v.K {
	case String:
		return v.S
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Bool:
		return strconv.FormatBool(v.B)
	case Null:
		return "_:n" + strconv.FormatInt(v.I, 10)
	case ID:
		return "#" + v.S
	default:
		return "<invalid>"
	}
}

// Literal renders v the way the rule languages write a constant, so that
// ParseLiteral reads it back with the same kind: a string quoted, and an
// integral Float with a fraction ("1.0", where String gives "1") — without
// it the constant would come back an Int, and constants in atom positions
// match kind-sensitively.
func (v Value) Literal() string {
	switch v.K {
	case String:
		return strconv.Quote(v.S)
	case Float:
		s := v.String()
		if !strings.ContainsAny(s, ".eEIN") { // no fraction or exponent; not Inf/NaN
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// AsFloat converts numeric values to float64. It reports false for
// non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case Int:
		return float64(v.I), true
	case Float:
		return v.F, true
	default:
		return 0, false
	}
}

// AsInt converts v to an int64 if it is an Int, or a Float with an integral
// value. It reports false otherwise.
func (v Value) AsInt() (int64, bool) {
	switch v.K {
	case Int:
		return v.I, true
	case Float:
		if v.F == math.Trunc(v.F) && !math.IsInf(v.F, 0) {
			return int64(v.F), true
		}
	}
	return 0, false
}

// Truthy reports whether v is the boolean true.
func (v Value) Truthy() bool { return v.K == Bool && v.B }

// Compare orders two values. Values of different kinds are ordered by kind,
// except that Int and Float compare numerically with each other. Within a
// kind the natural order applies. Compare returns -1, 0 or +1.
func Compare(a, b Value) int {
	if af, ok := a.AsFloat(); ok {
		if bf, ok := b.AsFloat(); ok {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case String:
		return strings.Compare(a.S, b.S)
	case Bool:
		switch {
		case a.B == b.B:
			return 0
		case b.B:
			return -1
		default:
			return 1
		}
	case Null:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case ID:
		return strings.Compare(a.S, b.S)
	default:
		return 0
	}
}

// Equal reports whether a and b denote the same domain element. Int and Float
// values that are numerically equal are considered equal, mirroring the
// comparison semantics of MetaLog conditions.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Identical reports whether a and b are the same value: equal kinds and equal
// payloads, drawing exactly the distinctions Canonical draws without building
// the strings — every NaN is identical to every other, +0 and -0 are not, and
// Int 1 is not Float 1.0. It is the identity of stored data: fact dedup, join
// matches and the decision whether a write changes a property. Equal is the
// comparison of conditions.
func Identical(a, b Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case Int, Null:
		return a.I == b.I
	case Float:
		if a.F != a.F {
			return b.F != b.F // every NaN prints "NaN"
		}
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case Bool:
		return a.B == b.B
	default:
		return a.S == b.S
	}
}

// Add returns a+b for numeric values and string concatenation for strings.
func Add(a, b Value) (Value, error) {
	if a.K == String && b.K == String {
		return Str(a.S + b.S), nil
	}
	if a.K == Int && b.K == Int {
		return IntV(a.I + b.I), nil
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return FloatV(af + bf), nil
	}
	return Value{}, fmt.Errorf("value: cannot add %s and %s", a.K, b.K)
}

// Sub returns a-b for numeric values.
func Sub(a, b Value) (Value, error) {
	if a.K == Int && b.K == Int {
		return IntV(a.I - b.I), nil
	}
	return arith(a, b, "subtract", func(x, y float64) float64 { return x - y })
}

// Mul returns a*b for numeric values.
func Mul(a, b Value) (Value, error) {
	if a.K == Int && b.K == Int {
		return IntV(a.I * b.I), nil
	}
	return arith(a, b, "multiply", func(x, y float64) float64 { return x * y })
}

// Div returns a/b for numeric values; integer division truncates. Division by
// zero is an error.
func Div(a, b Value) (Value, error) {
	if bf, ok := b.AsFloat(); ok && bf == 0 {
		return Value{}, fmt.Errorf("value: division by zero")
	}
	if a.K == Int && b.K == Int {
		return IntV(a.I / b.I), nil
	}
	return arith(a, b, "divide", func(x, y float64) float64 { return x / y })
}

func arith(a, b Value, verb string, f func(x, y float64) float64) (Value, error) {
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return Value{}, fmt.Errorf("value: cannot %s %s and %s", verb, a.K, b.K)
	}
	return FloatV(f(af, bf)), nil
}

// ParseLiteral parses a textual literal: a quoted string, integer, float, or
// boolean. It is used by the Vadalog and MetaLog parsers and the CSV loader.
func ParseLiteral(s string) (Value, error) {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad string literal %s: %w", s, err)
		}
		return Str(u), nil
	}
	switch s {
	case "true":
		return BoolV(true), nil
	case "false":
		return BoolV(false), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return IntV(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return FloatV(f), nil
	}
	return Value{}, fmt.Errorf("value: unrecognized literal %q", s)
}
