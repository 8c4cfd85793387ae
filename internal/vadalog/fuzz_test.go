package vadalog

import (
	"math"
	"testing"

	"repro/internal/value"
)

// FuzzParse exercises the Vadalog parser for panics and round-trip
// stability: any program that parses must reparse from its own printed form.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`p(X) :- q(X).`,
		`controls(X,Y) :- controls(X,Z), owns(Z,Y,W), V = msum(W,<Z>), V > 0.5.`,
		`p(X, #f(X)) :- q(X), not r(X, _), X > 3, Y = concat(X, "s").`,
		`@input("a","csv","x.csv"). @output("p").`,
		`p("unterminated`,
		`p(1.5e3) :- q(0.5).`,
		// An integral Float has to print as one: "1" reparses as an Int.
		`p(1.0, -3.0) :- q(X), X > 2.0.`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		printed := prog.String()
		if _, err := Parse(printed); err != nil {
			t.Fatalf("printed form does not reparse: %v\nsource: %q\nprinted: %q", err, src, printed)
		}
	})
}

// TestParseNegativeConstants: a signed constant is parsed as one literal, so
// the smallest int64 — whose magnitude alone overflows — stays the Int its
// printed form denotes.
func TestParseNegativeConstants(t *testing.T) {
	args := MustParse(`p(-9223372036854775808, -1.5e-3, -7).`).Rules[0].Head[0].Args
	want := []value.Value{value.IntV(math.MinInt64), value.FloatV(-1.5e-3), value.IntV(-7)}
	for i, w := range want {
		if c, ok := args[i].(Const); !ok || c.Value != w {
			t.Errorf("arg %d = %#v, want constant %v", i, args[i], w)
		}
	}
}

// TestPrintedConstantsKeepTheirKind: an integral Float prints with a
// fraction, so the printed program reparses to the constants it was printed
// from — "1" would come back an Int, which an atom argument does not match.
func TestPrintedConstantsKeepTheirKind(t *testing.T) {
	prog := MustParse(`p(1.0, -3.0, 2, "1.0", 1e+21) :- q(X), X > 2.0.`)
	again, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("printed program %q does not reparse: %v", prog.String(), err)
	}
	want := []value.Value{value.FloatV(1), value.FloatV(-3), value.IntV(2), value.Str("1.0"), value.FloatV(1e21)}
	for i, w := range want {
		if c, ok := again.Rules[0].Head[0].Args[i].(Const); !ok || c.Value != w {
			t.Errorf("printed %q: arg %d came back %#v, want constant %#v", prog.String(), i, again.Rules[0].Head[0].Args[i], w)
		}
	}
	if c := again.Rules[0].Body[1].Expr.Right; c.Kind != ExprConst || c.Val != value.FloatV(2) {
		t.Errorf("printed %q: condition constant came back %#v", prog.String(), c)
	}
}
