package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// testStats is a synthetic catalog making "big" expensive and "small" cheap,
// so ordering decisions are predictable.
func testStats() *Stats {
	return &Stats{
		Nodes: 1000, Edges: 5000,
		Preds: map[string]PredStats{
			"big":   {Kind: "node", Card: 1000, Distinct: []int{1000, 10}},
			"small": {Kind: "node", Card: 5, Distinct: []int{5, 5}},
			"edge":  {Kind: "edge", Card: 5000, Distinct: []int{5000, 500, 900}},
		},
	}
}

func mustParse(t *testing.T, src string) *vadalog.Program {
	t.Helper()
	p, err := vadalog.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

func TestCompileReordersBySelectivity(t *testing.T) {
	prog := mustParse(t, `out(X,Y) :- big(X,V), small(Y,W).`)
	planned, pl, err := Compile(prog, testStats())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Planned || len(pl.Rules) != 1 || !pl.Rules[0].Reordered {
		t.Fatalf("expected a reordered plan, got %+v", pl)
	}
	body := planned.Rules[0].Body
	if body[0].Atom.Pred != "small" || body[1].Atom.Pred != "big" {
		t.Fatalf("order = %s, %s; want small first", body[0].Atom.Pred, body[1].Atom.Pred)
	}
	// The input program is never mutated.
	if prog.Rules[0].Body[0].Atom.Pred != "big" {
		t.Fatal("Compile mutated its input program")
	}
}

func TestCompileAvoidsCartesianProducts(t *testing.T) {
	// small(Z) is the cheapest atom after big(X,V) binds X, but it shares no
	// variable — picking it would start a cross product. The planner must
	// stay connected: big, then edge probing X, and only then small.
	prog := mustParse(t, `out(X,Y,Z) :- big(X,V), edge(E,X,Y), small(Z,W).`)
	planned, pl, err := Compile(prog, testStats())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Planned {
		t.Fatalf("plan fell back: %+v", pl)
	}
	body := planned.Rules[0].Body
	var preds []string
	for _, l := range body {
		preds = append(preds, l.Atom.Pred)
	}
	if preds[0] != "small" && preds[1] == "small" {
		t.Fatalf("small joined mid-chain without shared variables: %v", preds)
	}
}

func TestCompileNilStats(t *testing.T) {
	prog := mustParse(t, `out(X) :- big(X,V).`)
	planned, pl, err := Compile(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Planned || pl.Fallback == "" {
		t.Fatalf("nil stats must report an unplanned fallback, got %+v", pl)
	}
	if planned != prog {
		t.Fatal("nil stats must return the input program unchanged")
	}
}

func TestCompileFaultSite(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm("plan/order", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	prog := mustParse(t, `out(X) :- big(X,V).`)
	if _, _, err := Compile(prog, testStats()); err == nil {
		t.Fatal("armed plan/order site must surface an error")
	}
	// The next call (site disarmed after one shot) plans normally.
	if _, pl, err := Compile(prog, testStats()); err != nil || !pl.Planned {
		t.Fatalf("recovery compile: err=%v plan=%+v", err, pl)
	}
}

// TestReorderHazards pins the fallback taxonomy: each rule shape outside the
// reorderable class keeps written order with its reason recorded.
func TestReorderHazards(t *testing.T) {
	cases := []struct {
		src    string
		reason string
	}{
		{`out(X,C) :- big(X,V), C = count().`, "aggregation"},
		{`out(X,V) :- V = W + 1, big(X,W).`, "assignment"},
		{`out(X) :- not small(X,V), big(X,V).`, "negation over unbound variables"},
		{`out(X) :- X > 1, big(X,V).`, "condition over unbound variables"},
		// Reorderable shapes for contrast: bound negation and bound conditions
		// are not hazards.
		{`out(X) :- big(X,V), not small(X,V).`, ""},
		{`out(X) :- big(X,V), V > 1.`, ""},
	}
	for _, tc := range cases {
		prog := mustParse(t, tc.src)
		_, pl, err := Compile(prog, testStats())
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if len(pl.Rules) != 1 {
			t.Fatalf("%q: %d rule plans", tc.src, len(pl.Rules))
		}
		if got := pl.Rules[0].Fallback; got != tc.reason {
			t.Errorf("%q: fallback = %q, want %q", tc.src, got, tc.reason)
		}
	}
	// FirstMatchOnly is an AST flag, not surface syntax: set it directly.
	prog := mustParse(t, `out(X) :- big(X,V), small(X,W).`)
	prog.Rules[0].FirstMatchOnly = true
	_, pl, err := Compile(prog, testStats())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Rules[0].Fallback != "first-match-only" {
		t.Errorf("first-match-only fallback = %q", pl.Rules[0].Fallback)
	}
}

// ---------------------------------------------------------------------------
// Property test: on randomly generated programs and databases, the compiled
// program must be result-identical to the original — including programs with
// assignments, negation and aggregates, which must fall back per rule. The
// sweep runs the engine sequentially and in parallel.
// ---------------------------------------------------------------------------

func generateOrderProgram(rng *rand.Rand) string {
	var b strings.Builder
	bins := []string{"e", "f"}
	pick := func() string { return bins[rng.Intn(len(bins))] }
	idx := 0
	fresh := func(p string) string { idx++; return fmt.Sprintf("%s%d", p, idx) }
	nRules := 2 + rng.Intn(4)
	for i := 0; i < nRules; i++ {
		switch rng.Intn(8) {
		case 0, 1: // three-way join, deliberately badly ordered
			p := fresh("j")
			fmt.Fprintf(&b, "%s(X,Z) :- %s(X,Y), %s(Y,Z), %s(Z,W).\n", p, pick(), pick(), pick())
			bins = append(bins, p)
		case 2: // filter between joins
			p := fresh("c")
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y), X < Y.\n", p, pick())
			bins = append(bins, p)
		case 3: // assignment (reorder hazard: rule keeps written order)
			p := fresh("a")
			fmt.Fprintf(&b, "%s(X,V) :- %s(X,Y), V = Y + 10.\n", p, pick())
			bins = append(bins, p)
		case 4: // negation (hazard when over unbound vars)
			p := fresh("n")
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y), not %s(Y,X).\n", p, pick(), pick())
			bins = append(bins, p)
		case 5: // aggregation (hazard)
			p := fresh("g")
			fmt.Fprintf(&b, "%s(X,C) :- %s(X,Y), C = count().\n", p, pick())
		case 6: // closure (recursion survives reordering)
			p := fresh("t")
			base := pick()
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y).\n", p, base)
			fmt.Fprintf(&b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", p, p, base)
			bins = append(bins, p)
		case 7: // wide join with a late cheap atom (reorder bait)
			p := fresh("w")
			fmt.Fprintf(&b, "%s(X,W) :- %s(X,Y), %s(Y,Z), %s(Z,W), X != W.\n", p, pick(), pick(), pick())
			bins = append(bins, p)
		}
	}
	return b.String()
}

func generateOrderDB(rng *rand.Rand) *vadalog.Database {
	db := vadalog.NewDatabase()
	n := 3 + rng.Intn(6)
	for i := 0; i < 10+rng.Intn(20); i++ {
		db.MustAddFact("e", value.IntV(int64(rng.Intn(n))), value.IntV(int64(rng.Intn(n))))
	}
	for i := 0; i < 5+rng.Intn(10); i++ {
		db.MustAddFact("f", value.IntV(int64(rng.Intn(n))), value.IntV(int64(rng.Intn(n))))
	}
	return db
}

func renderResult(res *vadalog.Result, preds map[string]bool) string {
	var names []string
	for p := range preds {
		names = append(names, p)
	}
	var b strings.Builder
	for _, p := range sortedStrings(names) {
		for _, f := range res.DB.SortedFacts(p) {
			b.WriteString(p)
			b.WriteByte('(')
			b.WriteString(f.String())
			b.WriteString(")\n")
		}
	}
	return b.String()
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestOrderingDifferentialProperty(t *testing.T) {
	reordered := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := generateOrderProgram(rng)
		prog, err := vadalog.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: generator emitted unparsable program: %v\n%s", seed, err, src)
		}
		if _, err := vadalog.Analyze(prog); err != nil {
			continue // unsafe/unstratifiable draw; the planner never sees these
		}
		db := generateOrderDB(rng)
		st := &Stats{Nodes: 20, Edges: 40, Preds: map[string]PredStats{
			"e": {Kind: "edge", Card: 25, Distinct: []int{25, 6, 6}},
			"f": {Kind: "edge", Card: 10, Distinct: []int{10, 6, 6}},
		}}
		planned, pl, err := Compile(prog, st)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rp := range pl.Rules {
			if rp.Reordered {
				reordered++
			}
		}
		preds := map[string]bool{}
		for _, r := range prog.Rules {
			for _, h := range r.Head {
				preds[h.Pred] = true
			}
		}
		// Demand-restricted closures are intentionally narrowed; exclude them
		// (none are outputs — the generator emits no output annotations, and
		// soundness for consumers is covered by the demand tests).
		for _, dp := range pl.Demand {
			delete(preds, dp.Pred)
		}
		for _, workers := range []int{1, 4} {
			want, werr := vadalog.Run(prog, db, vadalog.Options{Workers: workers})
			got, gerr := vadalog.Run(planned, db, vadalog.Options{Workers: workers})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("seed %d workers %d: error mismatch: %v vs %v\n%s", seed, workers, werr, gerr, src)
			}
			if werr != nil {
				continue
			}
			if w, g := renderResult(want, preds), renderResult(got, preds); w != g {
				t.Fatalf("seed %d workers %d: results diverge\nprogram:\n%s\nwant:\n%s\ngot:\n%s",
					seed, workers, src, w, g)
			}
		}
	}
	if reordered == 0 {
		t.Fatal("no generated rule was reordered; the property is vacuous")
	}
	t.Logf("%d rules reordered across the sweep", reordered)
}
