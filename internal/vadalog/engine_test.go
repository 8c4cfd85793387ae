package vadalog

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func runProg(t *testing.T, src string, setup func(db *Database)) *Result {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := NewDatabase()
	if setup != nil {
		setup(db)
	}
	res, err := Run(prog, db, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func factStrings(fs []Fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

func TestTransitiveClosure(t *testing.T) {
	res := runProg(t, `
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
		@output("tc").
	`, func(db *Database) {
		for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
			db.MustAddFact("edge", value.Str(e[0]), value.Str(e[1]))
		}
	})
	got := res.Output("tc")
	if len(got) != 6 {
		t.Fatalf("expected 6 tc facts, got %d: %v", len(got), factStrings(got))
	}
	want := "(a,d)"
	found := false
	for _, f := range got {
		if f.String() == want {
			found = true
		}
	}
	if !found {
		t.Errorf("missing fact tc%s", want)
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	res := runProg(t, `
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`, func(db *Database) {
		db.MustAddFact("edge", value.Str("a"), value.Str("b"))
		db.MustAddFact("edge", value.Str("b"), value.Str("a"))
	})
	if n := len(res.Output("tc")); n != 4 {
		t.Fatalf("cycle closure should have 4 facts, got %d", n)
	}
}

func TestFactsAndConjunctiveHead(t *testing.T) {
	res := runProg(t, `
		base("x", 1).
		p(A), q(N) :- base(A, N).
	`, nil)
	if n := len(res.Output("p")); n != 1 {
		t.Fatalf("p: got %d facts", n)
	}
	if n := len(res.Output("q")); n != 1 {
		t.Fatalf("q: got %d facts", n)
	}
	if got := res.Output("q")[0][0]; got.I != 1 {
		t.Errorf("q value = %v", got)
	}
}

func TestExistentialSkolemization(t *testing.T) {
	res := runProg(t, `
		hasMgr(E, M) :- emp(E).
	`, func(db *Database) {
		db.MustAddFact("emp", value.Str("ann"))
		db.MustAddFact("emp", value.Str("bob"))
	})
	got := res.Output("hasMgr")
	if len(got) != 2 {
		t.Fatalf("expected 2 facts, got %d", len(got))
	}
	// Each employee gets a manager null; distinct employees get distinct
	// nulls, and re-running is deterministic.
	if value.Equal(got[0][1], got[1][1]) {
		t.Errorf("distinct frontier bindings must produce distinct nulls: %v", factStrings(got))
	}
	if got[0][1].K != value.ID {
		t.Errorf("existential value should be a Skolem identifier, got kind %v", got[0][1].K)
	}
}

func TestExistentialReusedAcrossHeadConjunction(t *testing.T) {
	res := runProg(t, `
		a(X, N), b(N, X) :- base(X).
	`, func(db *Database) {
		db.MustAddFact("base", value.Str("k"))
	})
	av := res.Output("a")[0][1]
	bv := res.Output("b")[0][0]
	if !value.Equal(av, bv) {
		t.Errorf("existential must be shared across head conjunction: %v vs %v", av, bv)
	}
}

func TestExplicitLinkerSkolem(t *testing.T) {
	res := runProg(t, `
		out(X, #link(X, "suffix")) :- in(X).
	`, func(db *Database) {
		db.MustAddFact("in", value.Str("v"))
	})
	got := res.Output("out")[0][1]
	want := value.Skolem("link", value.Str("v"), value.Str("suffix"))
	if !value.Equal(got, want) {
		t.Errorf("linker skolem: got %v want %v", got, want)
	}
}

func TestLinkerSkolemInjectiveAndRangeDisjoint(t *testing.T) {
	a := value.Skolem("skA", value.Str("x"))
	b := value.Skolem("skB", value.Str("x"))
	if value.Equal(a, b) {
		t.Errorf("distinct functors must have disjoint ranges")
	}
	a2 := value.Skolem("skA", value.Str("x"))
	if !value.Equal(a, a2) {
		t.Errorf("skolem functors must be deterministic")
	}
}

func TestStratifiedNegation(t *testing.T) {
	res := runProg(t, `
		reach(X) :- start(X).
		reach(Y) :- reach(X), edge(X,Y).
		unreached(X) :- node(X), not reach(X).
		@output("unreached").
	`, func(db *Database) {
		for _, n := range []string{"a", "b", "c", "d"} {
			db.MustAddFact("node", value.Str(n))
		}
		db.MustAddFact("start", value.Str("a"))
		db.MustAddFact("edge", value.Str("a"), value.Str("b"))
		db.MustAddFact("edge", value.Str("c"), value.Str("d"))
	})
	got := factStrings(res.Output("unreached"))
	if len(got) != 2 || got[0] != "(c)" || got[1] != "(d)" {
		t.Errorf("unreached = %v, want [(c) (d)]", got)
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	prog := MustParse(`
		p(X) :- base(X), not q(X).
		q(X) :- base(X), not p(X).
	`)
	if _, err := Run(prog, NewDatabase(), Options{}); err == nil {
		t.Fatal("negation through recursion must be rejected")
	}
}

func TestNegationWildcard(t *testing.T) {
	res := runProg(t, `
		leaf(X) :- node(X), not edge(X, _).
	`, func(db *Database) {
		db.MustAddFact("node", value.Str("a"))
		db.MustAddFact("node", value.Str("b"))
		db.MustAddFact("edge", value.Str("a"), value.Str("b"))
	})
	got := factStrings(res.Output("leaf"))
	if len(got) != 1 || got[0] != "(b)" {
		t.Errorf("leaf = %v, want [(b)]", got)
	}
}

func TestConditionsAndExpressions(t *testing.T) {
	res := runProg(t, `
		big(X, D) :- num(X), X > 10, D = X * 2 + 1.
	`, func(db *Database) {
		db.MustAddFact("num", value.IntV(5))
		db.MustAddFact("num", value.IntV(20))
	})
	got := res.Output("big")
	if len(got) != 1 {
		t.Fatalf("big: got %d facts", len(got))
	}
	if got[0][1].I != 41 {
		t.Errorf("derived value = %v, want 41", got[0][1])
	}
}

func TestStringFunctions(t *testing.T) {
	res := runProg(t, `
		out(Y) :- in(X), Y = concat(upper(X), "-", strlen(X)).
	`, func(db *Database) {
		db.MustAddFact("in", value.Str("abc"))
	})
	if got := res.Output("out")[0][0].S; got != "ABC-3" {
		t.Errorf("got %q", got)
	}
}

func TestStratifiedAggregates(t *testing.T) {
	res := runProg(t, `
		total(D, S) :- sale(D, _, V), S = sum(V).
		howmany(D, C) :- sale(D, _, _), C = count().
		cheapest(D, M) :- sale(D, _, V), M = min(V).
		priciest(D, M) :- sale(D, _, V), M = max(V).
	`, func(db *Database) {
		db.MustAddFact("sale", value.Str("north"), value.Str("s1"), value.IntV(10))
		db.MustAddFact("sale", value.Str("north"), value.Str("s2"), value.IntV(30))
		db.MustAddFact("sale", value.Str("south"), value.Str("s3"), value.IntV(7))
	})
	if got := factStrings(res.Output("total")); got[0] != "(north,40)" || got[1] != "(south,7)" {
		t.Errorf("total = %v", got)
	}
	if got := factStrings(res.Output("howmany")); got[0] != "(north,2)" || got[1] != "(south,1)" {
		t.Errorf("howmany = %v", got)
	}
	if got := factStrings(res.Output("cheapest")); got[0] != "(north,10)" || got[1] != "(south,7)" {
		t.Errorf("cheapest = %v", got)
	}
	if got := factStrings(res.Output("priciest")); got[0] != "(north,30)" || got[1] != "(south,7)" {
		t.Errorf("priciest = %v", got)
	}
}

func TestStratifiedAggregateFeedsSameStratumRules(t *testing.T) {
	res := runProg(t, `
		total(D, S) :- sale(D, V), S = sum(V).
		bigRegion(D) :- total(D, S), S > 15.
	`, func(db *Database) {
		db.MustAddFact("sale", value.Str("north"), value.IntV(10))
		db.MustAddFact("sale", value.Str("north"), value.IntV(30))
		db.MustAddFact("sale", value.Str("south"), value.IntV(7))
	})
	got := factStrings(res.Output("bigRegion"))
	if len(got) != 1 || got[0] != "(north)" {
		t.Errorf("bigRegion = %v", got)
	}
}

// TestExample42ControlVadalog reproduces Example 4.2 of the paper: company
// control via recursion and monotonic summation.
func TestExample42ControlVadalog(t *testing.T) {
	res := runProg(t, `
		controls(X, X) :- company(X).
		controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
		@output("controls").
	`, func(db *Database) {
		for _, c := range []string{"a", "b", "c", "d"} {
			db.MustAddFact("company", value.Str(c))
		}
		// a owns 60% of b; a owns 30% of c, b owns 30% of c (jointly 60%);
		// c owns 40% of d (no control).
		own := func(x, y string, w float64) {
			db.MustAddFact("owns", value.Str(x), value.Str(y), value.FloatV(w))
		}
		own("a", "b", 0.6)
		own("a", "c", 0.3)
		own("b", "c", 0.3)
		own("c", "d", 0.4)
	})
	got := map[string]bool{}
	for _, f := range res.Output("controls") {
		got[f[0].S+"->"+f[1].S] = true
	}
	for _, want := range []string{"a->a", "b->b", "c->c", "d->d", "a->b", "a->c"} {
		if !got[want] {
			t.Errorf("missing control edge %s; got %v", want, got)
		}
	}
	if got["a->d"] || got["b->c"] || got["c->d"] {
		t.Errorf("spurious control edge derived: %v", got)
	}
	if len(got) != 6 {
		t.Errorf("expected 6 control edges, got %d: %v", len(got), got)
	}
}

// TestControlDeepChain checks monotonic aggregation through long recursion:
// a chain where each company owns 100% of the next.
func TestControlDeepChain(t *testing.T) {
	res := runProg(t, `
		controls(X, X) :- company(X).
		controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
	`, func(db *Database) {
		const n = 50
		names := make([]string, n)
		for i := range names {
			names[i] = "c" + strings.Repeat("x", 1) + string(rune('0'+i%10)) + string(rune('a'+i/10))
			db.MustAddFact("company", value.Str(names[i]))
		}
		for i := 0; i+1 < n; i++ {
			db.MustAddFact("owns", value.Str(names[i]), value.Str(names[i+1]), value.FloatV(1.0))
		}
	})
	// Every prefix controls every suffix: n self + n(n-1)/2 pairs.
	want := 50 + 50*49/2
	if n := len(res.Output("controls")); n != want {
		t.Errorf("chain control count = %d, want %d", n, want)
	}
}

// TestControlDiamondJointControl exercises the joint-control case that the
// simple transitive closure would miss: two controlled intermediaries whose
// stakes only jointly exceed 50%.
func TestControlDiamondJointControl(t *testing.T) {
	res := runProg(t, `
		controls(X, X) :- company(X).
		controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
	`, func(db *Database) {
		for _, c := range []string{"top", "l", "r", "bottom"} {
			db.MustAddFact("company", value.Str(c))
		}
		own := func(x, y string, w float64) {
			db.MustAddFact("owns", value.Str(x), value.Str(y), value.FloatV(w))
		}
		own("top", "l", 0.6)
		own("top", "r", 0.6)
		own("l", "bottom", 0.3)
		own("r", "bottom", 0.3)
	})
	got := map[string]bool{}
	for _, f := range res.Output("controls") {
		got[f[0].S+"->"+f[1].S] = true
	}
	if !got["top->bottom"] {
		t.Errorf("joint control through l and r not derived: %v", got)
	}
	if got["l->bottom"] || got["r->bottom"] {
		t.Errorf("spurious single-leg control: %v", got)
	}
}

func TestMonotonicCount(t *testing.T) {
	res := runProg(t, `
		reached(X) :- seed(X).
		reached(Y) :- reached(X), edge(X, Y).
		popular(Y, C) :- reached(X), edge(X, Y), C = mcount(<X>), C >= 2.
	`, func(db *Database) {
		db.MustAddFact("seed", value.Str("a"))
		db.MustAddFact("edge", value.Str("a"), value.Str("b"))
		db.MustAddFact("edge", value.Str("a"), value.Str("c"))
		db.MustAddFact("edge", value.Str("b"), value.Str("c"))
	})
	// c is reached from both a and b.
	found := false
	for _, f := range res.Output("popular") {
		if f[0].S == "c" && f[1].I == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("popular = %v", factStrings(res.Output("popular")))
	}
}

func TestSafetyErrors(t *testing.T) {
	cases := []string{
		`p(X) :- q(Y), not r(X).`,               // unbound var in negation
		`p(X) :- q(Y), X > 3.`,                  // unbound var in condition (X never bound)
		`p(Y) :- q(X), Z = W + 1.`,              // unbound var in assignment RHS
		`p(#f(Z)) :- q(X).`,                     // skolem over unbound var
		`p(X) :- q(X), A = sum(X), B = sum(X).`, // two aggregates
	}
	for _, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			continue // a parse error is an acceptable rejection too
		}
		if _, err := Analyze(prog); err == nil {
			t.Errorf("program accepted but should be unsafe: %s", src)
		}
	}
}

func TestArityMismatchRejected(t *testing.T) {
	prog := MustParse(`
		p(X) :- q(X).
		p(X, Y) :- q(X), q(Y).
	`)
	if _, err := Run(prog, NewDatabase(), Options{}); err == nil {
		t.Fatal("arity mismatch must be rejected")
	}
}

func TestWardednessAnalysis(t *testing.T) {
	// A classic warded program: the existential value flows through a
	// single ward atom.
	prog := MustParse(`
		hasOwner(X, O) :- company(X).
		ownerOf(O, X) :- hasOwner(X, O).
	`)
	an, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !an.Warded {
		t.Errorf("program should be warded: %v", an.Violations)
	}
	if len(an.AffectedPositions) == 0 {
		t.Errorf("affected positions should include hasOwner/1")
	}

	// Dangerous variables spread over two atoms with no shared ward and no
	// harmless occurrence: not warded.
	bad := MustParse(`
		p(X, N) :- base(X).
		q(A, B) :- p(X, A), p(Y, B).
	`)
	an2, err := Analyze(bad)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if an2.Warded {
		t.Errorf("program with split dangerous variables should not be warded")
	}
}

func TestPiecewiseLinearAnalysis(t *testing.T) {
	pl := MustParse(`
		tc(X,Y) :- e(X,Y).
		tc(X,Z) :- tc(X,Y), e(Y,Z).
	`)
	an, _ := Analyze(pl)
	if !an.PiecewiseLinear {
		t.Errorf("linear TC should be piecewise linear")
	}
	npl := MustParse(`
		tc(X,Y) :- e(X,Y).
		tc(X,Z) :- tc(X,Y), tc(Y,Z).
	`)
	an2, _ := Analyze(npl)
	if an2.PiecewiseLinear {
		t.Errorf("doubled recursion is not piecewise linear")
	}
}

func TestSameGeneration(t *testing.T) {
	res := runProg(t, `
		sg(X, X) :- person(X).
		sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
	`, func(db *Database) {
		for _, p := range []string{"grandpa", "dad", "uncle", "me", "cousin"} {
			db.MustAddFact("person", value.Str(p))
		}
		db.MustAddFact("par", value.Str("dad"), value.Str("grandpa"))
		db.MustAddFact("par", value.Str("uncle"), value.Str("grandpa"))
		db.MustAddFact("par", value.Str("me"), value.Str("dad"))
		db.MustAddFact("par", value.Str("cousin"), value.Str("uncle"))
	})
	got := map[string]bool{}
	for _, f := range res.Output("sg") {
		got[f[0].S+"~"+f[1].S] = true
	}
	if !got["me~cousin"] || !got["dad~uncle"] {
		t.Errorf("same-generation pairs missing: %v", got)
	}
	if got["me~dad"] {
		t.Errorf("cross-generation pair derived")
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	res := runProg(t, `
		loop(X) :- edge(X, X).
	`, func(db *Database) {
		db.MustAddFact("edge", value.Str("a"), value.Str("a"))
		db.MustAddFact("edge", value.Str("a"), value.Str("b"))
	})
	got := factStrings(res.Output("loop"))
	if len(got) != 1 || got[0] != "(a)" {
		t.Errorf("loop = %v", got)
	}
}

// TestRepeatedVariableMatchesByIdentity: a variable repeated inside one atom
// matches the way a join matches it — by identity, so Int 1 and Float 1.0
// differ — and the answer does not depend on which atom binds the variable
// first, over mutable and sealed relations alike.
func TestRepeatedVariableMatchesByIdentity(t *testing.T) {
	db := NewDatabase()
	db.MustAddFact("r", value.IntV(1))
	db.MustAddFact("r", value.IntV(2))
	db.MustAddFact("p", value.IntV(1), value.FloatV(1))
	db.MustAddFact("p", value.IntV(2), value.IntV(2))
	sealed := db.Clone()
	seal(sealed)
	for _, src := range []string{`q(X) :- r(X), p(X, X).`, `q(X) :- p(X, X), r(X).`} {
		for name, in := range map[string]*Database{"mutable": db, "sealed": sealed} {
			res, err := Run(MustParse(src), in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(factStrings(res.Output("q")), " "); got != "(2)" {
				t.Errorf("%s over %s relations: q = %s, want (2)", src, name, got)
			}
		}
	}
}

func TestConstantsInAtoms(t *testing.T) {
	res := runProg(t, `
		redThing(X) :- item(X, "red", _).
	`, func(db *Database) {
		db.MustAddFact("item", value.Str("ball"), value.Str("red"), value.IntV(1))
		db.MustAddFact("item", value.Str("cube"), value.Str("blue"), value.IntV(2))
	})
	got := factStrings(res.Output("redThing"))
	if len(got) != 1 || got[0] != "(ball)" {
		t.Errorf("redThing = %v", got)
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	db := NewDatabase()
	db.MustAddFact("q", value.IntV(1))
	if _, err := Run(prog, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.Count("p") != 0 {
		t.Errorf("Run must not mutate the input database")
	}
}

func TestNonRecursiveRuleOverGrowingSameStratumPred(t *testing.T) {
	// q is not in p's SCC but reads it within the same stratum; it must see
	// all p facts, including ones derived after round 0.
	res := runProg(t, `
		p(X, Y) :- e(X, Y).
		p(X, Z) :- p(X, Y), e(Y, Z).
		q(X) :- p(X, Y), Y = "d".
	`, func(db *Database) {
		db.MustAddFact("e", value.Str("a"), value.Str("b"))
		db.MustAddFact("e", value.Str("b"), value.Str("c"))
		db.MustAddFact("e", value.Str("c"), value.Str("d"))
	})
	got := factStrings(res.Output("q"))
	if len(got) != 3 {
		t.Errorf("q should contain a, b, c; got %v", got)
	}
}

func TestParserRoundTrip(t *testing.T) {
	src := `controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = sum(W, <Z>), V > 0.5.
@output("controls").`
	prog := MustParse(src)
	printed := prog.String()
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	if prog2.String() != printed {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", printed, prog2.String())
	}
}

func TestEDBAndIDBPredicates(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	if got := prog.EDBPredicates(); len(got) != 1 || got[0] != "edge" {
		t.Errorf("EDB = %v", got)
	}
	if got := prog.IDBPredicates(); len(got) != 1 || got[0] != "tc" {
		t.Errorf("IDB = %v", got)
	}
}
