package vadalog

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/value"
)

// randomEdgeDB builds a database with a random edge relation over n nodes.
func randomEdgeDB(seed int64, n, edges int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase()
	for i := 0; i < edges; i++ {
		db.MustAddFact("edge", value.IntV(int64(rng.Intn(n))), value.IntV(int64(rng.Intn(n))))
	}
	return db
}

// nativeClosure computes the transitive closure with a plain BFS.
func nativeClosure(db *Database) map[[2]int64]bool {
	adj := map[int64][]int64{}
	for _, f := range db.Facts("edge") {
		adj[f[0].I] = append(adj[f[0].I], f[1].I)
	}
	out := map[[2]int64]bool{}
	for src := range adj {
		seen := map[int64]bool{}
		stack := append([]int64(nil), adj[src]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			out[[2]int64{src, v}] = true
			stack = append(stack, adj[v]...)
		}
	}
	return out
}

// TestTransitiveClosureMatchesNative is the engine's core soundness and
// completeness property: the Datalog fixpoint agrees with a native graph
// traversal on random graphs.
func TestTransitiveClosureMatchesNative(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	f := func(seed int64) bool {
		db := randomEdgeDB(seed, 15, 30)
		res, err := Run(prog, db, Options{})
		if err != nil {
			return false
		}
		want := nativeClosure(db)
		got := map[[2]int64]bool{}
		for _, fa := range res.DB.Facts("tc") {
			got[[2]int64{fa[0].I, fa[1].I}] = true
		}
		if len(got) != len(want) {
			return false
		}
		for p := range want {
			if !got[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNaiveEquivalentToSemiNaive: the two evaluation strategies derive the
// same facts on random recursive workloads (ablation A2's correctness
// precondition).
func TestNaiveEquivalentToSemiNaive(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
		top(X) :- tc(X, Y), not tc(Y, X).
	`)
	f := func(seed int64) bool {
		db := randomEdgeDB(seed, 12, 25)
		a, err := Run(prog, db, Options{})
		if err != nil {
			return false
		}
		b, err := Run(prog, db, Options{Naive: true})
		if err != nil {
			return false
		}
		return a.DB.Dump() == b.DB.Dump()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMonotonicSumOrderIndependence: the final msum-derived facts do not
// depend on fact insertion order (the accumulator semantics is a set fold).
func TestMonotonicSumOrderIndependence(t *testing.T) {
	prog := MustParse(`
		reach(X, V) :- seed(X), V = msum(1, <X>).
		big(Y, V) :- owns(X, Y, W), V = msum(W, <X>), V > 0.5.
	`)
	type edge struct {
		x, y string
		w    float64
	}
	edges := []edge{
		{"a", "t", 0.3}, {"b", "t", 0.3}, {"c", "t", 0.2},
		{"a", "u", 0.6}, {"b", "u", 0.1},
	}
	run := func(perm []int) string {
		db := NewDatabase()
		db.MustAddFact("seed", value.Str("s"))
		for _, i := range perm {
			e := edges[i]
			db.MustAddFact("owns", value.Str(e.x), value.Str(e.y), value.FloatV(e.w))
		}
		res, err := Run(prog, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Compare only the final (maximal) aggregate per group: monotonic
		// aggregation emits intermediate sums whose order varies.
		max := map[string]float64{}
		for _, f := range res.DB.Facts("big") {
			v, _ := f[1].AsFloat()
			if v > max[f[0].S] {
				max[f[0].S] = v
			}
		}
		return fmt.Sprint(max)
	}
	base := run([]int{0, 1, 2, 3, 4})
	for _, perm := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 3, 0, 4, 2}} {
		if got := run(perm); got != base {
			t.Errorf("order dependence: %s vs %s (perm %v)", got, base, perm)
		}
	}
}

func TestMonotonicMinMax(t *testing.T) {
	res := runProg(t, `
		cheapest(S, M) :- offer(S, P), M = mmin(P, <P>).
		priciest(S, M) :- offer(S, P), M = mmax(P, <P>).
	`, func(db *Database) {
		for _, p := range []int64{30, 10, 20} {
			db.MustAddFact("offer", value.Str("shop"), value.IntV(p))
		}
	})
	// Monotonic aggregates emit running values; the extremes must be there.
	sawMin, sawMax := false, false
	for _, f := range res.Output("cheapest") {
		if f[1].I == 10 {
			sawMin = true
		}
	}
	for _, f := range res.Output("priciest") {
		if f[1].I == 30 {
			sawMax = true
		}
	}
	if !sawMin || !sawMax {
		t.Errorf("extremes missing: cheapest=%v priciest=%v", res.Output("cheapest"), res.Output("priciest"))
	}
}

func TestStratifiedAvgAndProd(t *testing.T) {
	res := runProg(t, `
		average(G, A) :- sample(G, V), A = avg(V).
		product(G, P) :- sample(G, V), P = prod(V).
	`, func(db *Database) {
		db.MustAddFact("sample", value.Str("g"), value.IntV(2))
		db.MustAddFact("sample", value.Str("g"), value.IntV(4))
		db.MustAddFact("sample", value.Str("g"), value.IntV(6))
	})
	if got := res.Output("average")[0][1]; got.F != 4 {
		t.Errorf("avg = %v", got)
	}
	if got := res.Output("product")[0][1]; got.I != 48 {
		t.Errorf("prod = %v", got)
	}
}

func TestPackAggregate(t *testing.T) {
	res := runProg(t, `
		packed(G, P) :- attr(G, N, V), P = pack(N, V).
	`, func(db *Database) {
		db.MustAddFact("attr", value.Str("n1"), value.Str("name"), value.Str("acme"))
		db.MustAddFact("attr", value.Str("n1"), value.Str("cap"), value.IntV(100))
	})
	got := res.Output("packed")[0][1].S
	if got != "cap=100|name=acme" {
		t.Errorf("pack = %q", got)
	}
}

func TestMaxFactsLimit(t *testing.T) {
	prog := MustParse(`
		nat(Y) :- nat(X), Y = X + 1.
	`)
	db := NewDatabase()
	db.MustAddFact("nat", value.IntV(0))
	if _, err := Run(prog, db, Options{MaxFacts: 100}); err == nil {
		t.Fatal("unbounded derivation must hit the fact limit")
	}
}

func TestMaxRoundsLimit(t *testing.T) {
	prog := MustParse(`
		nat(Y) :- nat(X), Y = X + 1, Y < 100000.
	`)
	db := NewDatabase()
	db.MustAddFact("nat", value.IntV(0))
	if _, err := Run(prog, db, Options{MaxRounds: 10}); err == nil {
		t.Fatal("fixpoint must be cut off by MaxRounds")
	}
}

// TestSkolemChaseValve: the textbook person/hasBoss cascade is warded, and
// the warded chase (with isomorphism checks) would saturate it — but the
// frontier-Skolem realization keeps minting fresh nulls level after level.
// The MaxFacts valve must stop the run with an error instead of looping;
// DESIGN.md documents this as the one place the Skolemized chase is
// strictly weaker than the full warded chase.
func TestSkolemChaseValve(t *testing.T) {
	prog := MustParse(`
		hasBoss(X, B) :- person(X).
		person(B) :- hasBoss(X, B).
	`)
	an, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Warded {
		t.Errorf("the cascade program is warded: %v", an.Violations)
	}
	db := NewDatabase()
	db.MustAddFact("person", value.Str("root"))
	if _, err := Run(prog, db, Options{MaxFacts: 500}); err == nil {
		t.Fatal("cascading existentials must hit the fact valve")
	}
}

func TestExpressionFunctionLibrary(t *testing.T) {
	cases := []struct {
		expr string
		want value.Value
	}{
		{`abs(0 - 5)`, value.IntV(5)},
		{`sqrt(16.0)`, value.FloatV(4)},
		{`floor(3.7)`, value.FloatV(3)},
		{`ceil(3.2)`, value.FloatV(4)},
		{`min2(3, 7)`, value.IntV(3)},
		{`max2(3, 7)`, value.IntV(7)},
		{`lower("ABC")`, value.Str("abc")},
		{`upper("abc")`, value.Str("ABC")},
		{`trim("  x ")`, value.Str("x")},
		{`strlen("abcd")`, value.IntV(4)},
		{`contains("hello", "ell")`, value.BoolV(true)},
		{`starts_with("hello", "he")`, value.BoolV(true)},
		{`substring_before("Rossi Mario", " ")`, value.Str("Rossi")},
		{`substring_after("Rossi Mario", " ")`, value.Str("Mario")},
		{`to_string(42)`, value.Str("42")},
		{`to_float("x") or true`, value.Value{}}, // error case, checked below
	}
	for _, c := range cases[:len(cases)-1] {
		res := runProg(t, fmt.Sprintf(`out(Y) :- in(X), Y = %s.`, c.expr), func(db *Database) {
			db.MustAddFact("in", value.IntV(1))
		})
		got := res.Output("out")[0][0]
		if !value.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	// Errors propagate.
	prog := MustParse(`out(Y) :- in(X), Y = to_int("nope").`)
	db := NewDatabase()
	db.MustAddFact("in", value.Str("nope"))
	if _, err := Run(prog, db, Options{}); err == nil {
		t.Error("to_int on garbage must error")
	}
}

func TestParserErrors(t *testing.T) {
	cases := []string{
		`p(X :- q(X).`,            // unbalanced
		`p(X) :- q(X)`,            // missing terminator
		`p(X) :- q(X), Y = sum(.`, // broken aggregate
		`@output(controls`,        // broken annotation
		`p("unterminated) :- q(X).`,
		`p(X) :- msum(X).`, // monotonic without contributors
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse should fail: %s", src)
		}
	}
}

func TestAnnotationsRoundTrip(t *testing.T) {
	prog := MustParse(`
		p(X) :- q(X).
		@input("q", "csv", "q.csv").
		@output("p").
	`)
	if len(prog.Inputs()) != 1 || prog.Inputs()[0].Args[2] != "q.csv" {
		t.Errorf("inputs = %v", prog.Inputs())
	}
	if out := prog.Outputs(); len(out) != 1 || out[0] != "p" {
		t.Errorf("outputs = %v", out)
	}
}

func TestDatabaseOperations(t *testing.T) {
	db := NewDatabase()
	db.MustAddFact("p", value.IntV(1))
	db.MustAddFact("p", value.IntV(2))
	db.MustAddFact("q", value.Str("x"), value.Str("y"))
	if db.TotalFacts() != 3 {
		t.Errorf("total = %d", db.TotalFacts())
	}
	if got := db.Predicates(); len(got) != 2 || got[0] != "p" {
		t.Errorf("predicates = %v", got)
	}
	clone := db.Clone()
	clone.MustAddFact("p", value.IntV(3))
	if db.Count("p") != 2 || clone.Count("p") != 3 {
		t.Error("clone shares storage")
	}
	if _, err := db.AddFact("p", value.IntV(1), value.IntV(2)); err == nil {
		t.Error("arity change must fail")
	}
	if db.Dump() == "" {
		t.Error("dump empty")
	}
}

func TestRelationLookupWindows(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 10; i++ {
		if _, err := r.Insert(Fact{value.IntV(int64(i % 3)), value.IntV(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Probe on the first column.
	pos := positions(r, 1, []value.Value{value.IntV(0)})
	if len(pos) != 4 { // i = 0,3,6,9
		t.Errorf("positions = %v", pos)
	}
	// Positions must be ascending (the engine's window filtering relies on
	// it).
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			t.Fatalf("positions not ascending: %v", pos)
		}
	}
	if !r.Contains(Fact{value.IntV(1), value.IntV(4)}) {
		t.Error("Contains misses an inserted fact")
	}
	if r.Contains(Fact{value.IntV(9), value.IntV(9)}) {
		t.Error("Contains reports a missing fact")
	}
}

// ---------------------------------------------------------------------------
// Golden run traces: worker-count independence
// ---------------------------------------------------------------------------

// traceBytes runs prog over a clone of db with the given worker count and
// returns the deterministic JSON serialization of its run trace.
func traceBytes(t *testing.T, prog *Program, db *Database, workers int) []byte {
	t.Helper()
	tr := obs.NewTrace()
	if _, err := Run(prog, db, Options{Workers: workers, Trace: tr}); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceWorkerIndependence: for linear programs — one growing-
// predicate occurrence per rule, so the sequential engine sees exactly the
// delta windows the sharded one does — the full JSON run trace (per-rule
// firings, derived facts, join probes, per-round delta sizes, outcome) is
// byte-identical across worker counts. Two fixtures: a recursive closure
// and a stratified program with negation.
func TestGoldenTraceWorkerIndependence(t *testing.T) {
	shrinkShards(t)
	fixtures := []struct{ name, src string }{
		{"linear recursion", `
			tc(X,Y) :- edge(X,Y).
			tc(X,Z) :- tc(X,Y), edge(Y,Z).
		`},
		{"negation over closure", `
			tc(X,Y) :- edge(X,Y).
			tc(X,Z) :- tc(X,Y), edge(Y,Z).
			oneway(X,Y) :- tc(X,Y), not tc(Y,X).
			acyclic(X) :- node(X), not tc(X,X).
		`},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			prog := MustParse(fx.src)
			db := randomEdgeDB(42, 40, 120)
			for i := 0; i < 40; i++ {
				db.MustAddFact("node", value.IntV(int64(i)))
			}
			base := traceBytes(t, prog, db, 1)
			// The trace must actually carry counters, not vacuous zeros.
			for _, field := range []string{`"firings"`, `"probes"`, `"delta"`, `"status": "ok"`} {
				if !bytes.Contains(base, []byte(field)) {
					t.Fatalf("trace misses %s:\n%s", field, base)
				}
			}
			for _, w := range []int{2, 8} {
				if got := traceBytes(t, prog, db, w); !bytes.Equal(base, got) {
					t.Errorf("trace differs between workers=1 and workers=%d\nworkers=1:\n%s\nworkers=%d:\n%s",
						w, base, w, got)
				}
			}
		})
	}
}

// TestTraceSequentialFallbacks: the engine falls back to fully sequential
// evaluation for provenance recording and for monotonic aggregates even when
// Workers > 1; the trace must still carry real counters on those paths.
func TestTraceSequentialFallbacks(t *testing.T) {
	shrinkShards(t)
	cases := []struct {
		name string
		src  string
		opts Options
	}{
		{
			name: "provenance forces sequential",
			src: `
				tc(X,Y) :- edge(X,Y).
				tc(X,Z) :- tc(X,Y), edge(Y,Z).
			`,
			opts: Options{Workers: 8, Provenance: true},
		},
		{
			name: "monotonic aggregate stratum is sequential",
			src: `
				deg(X,V) :- edge(X,Y), V = mcount(<Y>).
			`,
			opts: Options{Workers: 8},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := randomEdgeDB(7, 20, 60)
			tr := obs.NewTrace()
			opts := tc.opts
			opts.Trace = tr
			res, err := Run(MustParse(tc.src), db, opts)
			if err != nil {
				t.Fatal(err)
			}
			runs := tr.Runs()
			if len(runs) != 1 {
				t.Fatalf("recorded %d runs, want 1", len(runs))
			}
			rt := runs[0]
			var firings, derived, probes int64
			for _, rs := range rt.Rules {
				if rs.Evals == 0 {
					t.Errorf("rule %d never evaluated", rs.Rule)
				}
				firings += rs.Firings
				derived += rs.Derived
				probes += rs.Probes
			}
			if firings == 0 || probes == 0 {
				t.Errorf("fallback path recorded no work: firings=%d probes=%d", firings, probes)
			}
			if derived != int64(res.Stats.FactsDerived) {
				t.Errorf("per-rule derived sum %d != stats %d", derived, res.Stats.FactsDerived)
			}
			var roundDelta int
			for _, r := range rt.Rounds {
				roundDelta += r.Delta
			}
			if roundDelta != res.Stats.FactsDerived {
				t.Errorf("round deltas sum to %d, stats say %d", roundDelta, res.Stats.FactsDerived)
			}
			if rt.Outcome.Status != "ok" || rt.Outcome.Derived != res.Stats.FactsDerived {
				t.Errorf("outcome = %+v, stats = %+v", rt.Outcome, res.Stats)
			}
		})
	}
}
