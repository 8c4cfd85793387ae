package metalog

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// MetaLog's expressions, aggregates, constants and annotations are parsed by
// Vadalog's parser. These tests pin the consequences: what Vadalog lexes and
// rejects, MetaLog lexes and rejects.

// TestExponentLiterals: every number form Expr.String and Value.String can
// print (strconv's shortest rendering writes 1e+06, 1e+21) parses and
// evaluates, in expressions and as property constants.
func TestExponentLiterals(t *testing.T) {
	g := pg.New()
	for name, capital := range map[string]float64{"big": 2e6, "exact": 1e6, "tiny": 0.001} {
		g.AddNode([]string{"Business"}, pg.Props{"businessName": value.Str(name), "cap": value.FloatV(capital)})
	}
	for pattern, want := range map[string][]string{
		`(x: Business; businessName: n, cap: c), c > 1e6`:    {"big"},
		`(x: Business; businessName: n, cap: c), c >= 1e+06`: {"big", "exact"},
		`(x: Business; businessName: n, cap: c), c < 2.5E-3`: {"tiny"},
		`(x: Business; businessName: n, cap: 1e+06)`:         {"exact"},
		`(x: Business; businessName: n, cap: 2E6)`:           {"big"},
		`(x: Business; businessName: n, cap: c), c > -1e-3`:  {"big", "exact", "tiny"},
	} {
		rows, err := Query(g, pattern, vadalog.Options{})
		if err != nil {
			t.Errorf("%s: %v", pattern, err)
			continue
		}
		var got []string
		for _, r := range rows {
			got = append(got, r["n"].S)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: matched %v, want %v", pattern, got, want)
		}
	}

	// An exponent needs digits: a bare trailing e is the next identifier.
	p, err := newParser(`1e 2e+ 3.5e7`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for p.Peek().Kind != vadalog.TokEOF {
		got = append(got, p.Advance().Text)
	}
	if want := []string{"1", "e", "2", "e", "+", "3.5e7"}; !reflect.DeepEqual(got, want) {
		t.Errorf("tokens = %q, want %q", got, want)
	}
}

// TestAggregateArityRejected: an aggregate without its operands is a parse
// error carrying the line, not an evaluation-time surprise.
func TestAggregateArityRejected(t *testing.T) {
	for _, agg := range []string{`sum()`, `pack(c)`, `msum(<x>)`, `msum(c)`} {
		if _, err := ParsePattern("(x: A; p: c),\nv = " + agg); err == nil || !strings.HasPrefix(err.Error(), "metalog: line 2:") {
			t.Errorf("ParsePattern with %s: err = %v, want a metalog: line 2: error", agg, err)
		}
		if _, err := Parse("(x: A; p: c),\n\nv = " + agg + " -> (x: B; q: v)."); err == nil || !strings.HasPrefix(err.Error(), "metalog: line 3:") {
			t.Errorf("Parse with %s: err = %v, want a metalog: line 3: error", agg, err)
		}
	}
}

// TestBodyFloatRoundTrip: bodies holding floats whose shortest rendering uses
// an exponent, or is integral, survive print → parse → print unchanged, and
// parse back to the same constants — a Float that printed as "1" would come
// back an Int, which a constant in an atom position does not match.
func TestBodyFloatRoundTrip(t *testing.T) {
	body := []BodyElem{
		{Kind: BodyChain, Chain: Chain{Nodes: []NodeAtom{{
			ID: Ident{Var: "x"}, Label: "A",
			Props: []PropBinding{{Name: "p", Var: "c"}, {Name: "q", IsConst: true, Const: value.FloatV(1e21)},
				{Name: "r", IsConst: true, Const: value.FloatV(1)}, {Name: "s", IsConst: true, Const: value.FloatV(-3)},
				{Name: "t", IsConst: true, Const: value.IntV(1)}},
		}}}},
		{Kind: BodyExpr, Expr: &vadalog.Expr{Kind: vadalog.ExprBinary, Op: ">",
			Left:  &vadalog.Expr{Kind: vadalog.ExprVar, Name: "c"},
			Right: &vadalog.Expr{Kind: vadalog.ExprConst, Val: value.FloatV(2)}}},
		{Kind: BodyExpr, Expr: vadalog.MustParse(`r(C) :- s(C), C > 1e+06.`).Rules[0].Body[1].Expr},
		{Kind: BodyExpr, Expr: &vadalog.Expr{Kind: vadalog.ExprBinary, Op: "<",
			Left:  &vadalog.Expr{Kind: vadalog.ExprVar, Name: "c"},
			Right: &vadalog.Expr{Kind: vadalog.ExprConst, Val: value.FloatV(2.5e22)}}},
	}
	printed := printBody(body)
	for _, want := range []string{"1e+21", "1e+06", "2.5e+22", "r: 1.0", "s: -3.0", "t: 1)", "c > 2.0"} {
		if !strings.Contains(printed, want) {
			t.Fatalf("printed body %q does not render %s", printed, want)
		}
	}
	reparsed, err := ParsePattern(printed)
	if err != nil {
		t.Fatalf("printed body %q does not reparse: %v", printed, err)
	}
	if again := printBody(reparsed.Body); again != printed {
		t.Errorf("round trip changed the body:\n%s\n%s", printed, again)
	}
	if !reflect.DeepEqual(reparsed.Body, body) {
		t.Errorf("round trip changed a constant's kind or value:\n%#v\n%#v", body, reparsed.Body)
	}
}

// TestPatternKey: the key is the token stream — layout and comments between
// tokens do not reach it, the inside of a string constant does — and it is
// itself a pattern that parses to the same body.
func TestPatternKey(t *testing.T) {
	parse := func(src string) Pattern {
		t.Helper()
		p, err := ParsePattern(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return p
	}
	a := parse("  (x: Business; name: \"A  B\")\n\t[: OWNS]   (y: Business), % who\n x!=y ")
	if want := `( x : Business ; name : "A  B" ) [ : OWNS ] ( y : Business ) , x != y`; a.Key != want {
		t.Errorf("key = %q, want %q", a.Key, want)
	}
	if b := parse(`(x:Business;name:"A  B")[:OWNS](y:Business),x != y`); b.Key != a.Key {
		t.Errorf("layout reached the key: %q vs %q", b.Key, a.Key)
	}
	if b := parse(`(x: Business; name: "A B") [: OWNS] (y: Business), x != y`); b.Key == a.Key {
		t.Errorf("two string constants share the key %q", a.Key)
	}
	if again := parse(a.Key); again.Key != a.Key || !reflect.DeepEqual(again.Body, a.Body) {
		t.Errorf("the key %q does not parse back to its pattern", a.Key)
	}
}

func printBody(body []BodyElem) string {
	parts := make([]string, len(body))
	for i, be := range body {
		parts[i] = be.String()
	}
	return strings.Join(parts, ", ")
}

// TestExpressionsParseAsVadalog runs one table through both languages: the
// expression a MetaLog body holds is structurally the one Vadalog parses
// from the same text.
func TestExpressionsParseAsVadalog(t *testing.T) {
	for _, src := range []string{
		`v = a + b * 2 - c / 4`,
		`b1 = (not (a < b) or c >= 1.5e3 and d != e)`,
		`v = msum(w * 0.5, <z1, z2>)`,
		`n = count()`,
		`n = mcount(<z>)`,
		`m = pack(k, w)`,
		`s = concat(a, "x\"y", 7)`,
		`v = -a - -3`,
		`t == true and f != false`,
		`c > 1e+06`,
		`c <= 2.5E-3`,
		`v = max(w) * (1 - r)`,
	} {
		prog, err := vadalog.Parse(`p(X) :- q(X), ` + src + `.`)
		if err != nil {
			t.Errorf("vadalog %q: %v", src, err)
			continue
		}
		pat, err := ParsePattern(`(x: A), ` + src)
		if err != nil {
			t.Errorf("metalog %q: %v", src, err)
			continue
		}
		want, got := prog.Rules[0].Body[1].Expr, pat.Body[1].Expr
		if want == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: metalog parsed %v, vadalog %v", src, got, want)
		}
	}
}
