package vadalog

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestIncrementalRejectsNonMonotonic(t *testing.T) {
	neg := MustParse(`p(X) :- q(X), not r(X).`)
	if _, err := NewIncremental(context.Background(), neg, NewDatabase(), Options{}); err == nil {
		t.Error("negation must be rejected")
	}
	strat := MustParse(`s(G, T) :- q(G, V), T = sum(V).`)
	if _, err := NewIncremental(context.Background(), strat, NewDatabase(), Options{}); err == nil {
		t.Error("stratified aggregation must be rejected")
	}
	mono := MustParse(`s(G, T) :- q(G, V), T = msum(V, <V>).`)
	if _, err := NewIncremental(context.Background(), mono, NewDatabase(), Options{}); err != nil {
		t.Errorf("monotonic aggregation must be accepted: %v", err)
	}
}

func TestIncrementalTransitiveClosure(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	db := NewDatabase()
	db.MustAddFact("edge", value.Str("a"), value.Str("b"))
	inc, err := NewIncremental(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc.DB().Count("tc") != 1 {
		t.Fatalf("initial tc = %d", inc.DB().Count("tc"))
	}
	// Adding b->c must derive b->c and a->c.
	if err := inc.Add("edge", value.Str("b"), value.Str("c")); err != nil {
		t.Fatal(err)
	}
	n, err := inc.Propagate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || inc.DB().Count("tc") != 3 {
		t.Fatalf("propagate derived %d, tc = %d", n, inc.DB().Count("tc"))
	}
	// A second propagation with nothing new is a no-op.
	n, err = inc.Propagate(context.Background())
	if err != nil || n != 0 {
		t.Fatalf("idle propagate derived %d, %v", n, err)
	}
	// Bridging edge c->a closes the cycle: tc becomes all 9 pairs.
	if err := inc.Add("edge", value.Str("c"), value.Str("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if inc.DB().Count("tc") != 9 {
		t.Fatalf("tc after cycle = %d, want 9", inc.DB().Count("tc"))
	}
}

// TestIncrementalEquivalentToBatch: random edge streams propagated one batch
// at a time produce exactly the facts a from-scratch run over the full data
// derives.
func TestIncrementalEquivalentToBatch(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10
		type e struct{ x, y int64 }
		var all []e
		for i := 0; i < 25; i++ {
			all = append(all, e{int64(rng.Intn(n)), int64(rng.Intn(n))})
		}
		// Incremental: first 10 edges at start, then 3 batches of 5.
		db := NewDatabase()
		for _, ed := range all[:10] {
			db.MustAddFact("edge", value.IntV(ed.x), value.IntV(ed.y))
		}
		inc, err := NewIncremental(context.Background(), prog, db, Options{})
		if err != nil {
			return false
		}
		for batch := 10; batch < len(all); batch += 5 {
			for _, ed := range all[batch:min(batch+5, len(all))] {
				if err := inc.Add("edge", value.IntV(ed.x), value.IntV(ed.y)); err != nil {
					return false
				}
			}
			if _, err := inc.Propagate(context.Background()); err != nil {
				return false
			}
		}
		// Batch run over everything.
		full := NewDatabase()
		for _, ed := range all {
			full.MustAddFact("edge", value.IntV(ed.x), value.IntV(ed.y))
		}
		res, err := Run(prog, full, Options{})
		if err != nil {
			return false
		}
		return res.DB.Dump() == inc.DB().Dump()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalControl: the monotonic-aggregate accumulators survive
// propagation — adding a stake that completes a joint majority derives the
// control edge.
func TestIncrementalControl(t *testing.T) {
	prog := MustParse(`
		controls(X, X) :- company(X).
		controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
	`)
	db := NewDatabase()
	for _, c := range []string{"a", "b", "c"} {
		db.MustAddFact("company", value.Str(c))
	}
	db.MustAddFact("owns", value.Str("a"), value.Str("b"), value.FloatV(0.6))
	db.MustAddFact("owns", value.Str("a"), value.Str("c"), value.FloatV(0.3))
	inc, err := NewIncremental(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	has := func(x, y string) bool {
		for _, f := range inc.DB().Facts("controls") {
			if f[0].S == x && f[1].S == y {
				return true
			}
		}
		return false
	}
	if !has("a", "b") || has("a", "c") {
		t.Fatalf("initial control state wrong")
	}
	// b acquires 30% of c: jointly with a's 30%, a now controls c.
	if err := inc.Add("owns", value.Str("b"), value.Str("c"), value.FloatV(0.3)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !has("a", "c") {
		t.Errorf("joint control not derived incrementally: %v", inc.DB().SortedFacts("controls"))
	}
}

// TestIncrementalControlEquivalence: streaming random stakes one at a time
// matches the batch control computation exactly.
func TestIncrementalControlEquivalence(t *testing.T) {
	prog := MustParse(`
		controls(X, X) :- company(X).
		controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
	`)
	rng := rand.New(rand.NewSource(5))
	const n = 20
	type stake struct {
		x, y int64
		w    float64
	}
	var stakes []stake
	for i := 0; i < 60; i++ {
		stakes = append(stakes, stake{int64(rng.Intn(n)), int64(rng.Intn(n)), rng.Float64() * 0.4})
	}
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.MustAddFact("company", value.IntV(int64(i)))
	}
	inc, err := NewIncremental(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stakes {
		if err := inc.Add("owns", value.IntV(s.x), value.IntV(s.y), value.FloatV(s.w)); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Propagate(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	full := NewDatabase()
	for i := 0; i < n; i++ {
		full.MustAddFact("company", value.IntV(int64(i)))
	}
	for _, s := range stakes {
		full.MustAddFact("owns", value.IntV(s.x), value.IntV(s.y), value.FloatV(s.w))
	}
	res, err := Run(prog, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the controls relation only: intermediate monotonic-sum facts
	// of other predicates do not exist here, but the derived control pairs
	// must coincide.
	gotPairs := map[string]bool{}
	for _, f := range inc.DB().Facts("controls") {
		gotPairs[f.String()] = true
	}
	wantPairs := map[string]bool{}
	for _, f := range res.DB.Facts("controls") {
		wantPairs[f.String()] = true
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(gotPairs), len(wantPairs))
	}
	for p := range wantPairs {
		if !gotPairs[p] {
			t.Errorf("missing pair %s", p)
		}
	}
}

func TestIncrementalExistentials(t *testing.T) {
	prog := MustParse(`
		assigned(X, T) :- task(X).
	`)
	db := NewDatabase()
	db.MustAddFact("task", value.Str("t1"))
	inc, err := NewIncremental(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Add("task", value.Str("t2")); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	facts := inc.DB().SortedFacts("assigned")
	if len(facts) != 2 {
		t.Fatalf("assigned = %v", facts)
	}
	if value.Equal(facts[0][1], facts[1][1]) {
		t.Errorf("distinct tasks must get distinct nulls")
	}
}

func TestIncrementalProvenance(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	db := NewDatabase()
	db.MustAddFact("edge", value.Str("a"), value.Str("b"))
	inc, err := NewIncremental(context.Background(), prog, db, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Add("edge", value.Str("b"), value.Str("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Propagate(context.Background()); err != nil {
		t.Fatal(err)
	}
	proof, err := inc.Result().Explain("tc", Fact{value.Str("a"), value.Str("c")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The proof of the incrementally derived fact spans both the original
	// and the streamed data.
	if proof.Size() != 4 {
		t.Errorf("proof size = %d\n%s", proof.Size(), proof)
	}
}
