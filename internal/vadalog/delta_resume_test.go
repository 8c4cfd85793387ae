package vadalog

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/value"
)

// Maintenance of programs outside the DRed class: a program whose only
// blockers are monotonic aggregates and existential heads resumes its kept
// engine on insertion-only batches; everything else recomputes.

// controlSrc is Example 4.2's control program with owns as input.
const controlSrc = `
	controls(X, X) :- company(X).
	controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
`

// tcNullSrc is transitive closure plus an existential head, which keeps it
// off the DRed path and on the resume path. Its labelled nulls are keyed by
// the frontier, so a resumed database equals a fresh run's exactly, and
// without a monotonic aggregate it runs on the worker pool.
const tcNullSrc = `
	tc(X,Y) :- edge(X,Y).
	tc(X,Z) :- tc(X,Y), edge(Y,Z).
	tag(X, N) :- edge(X, Y).
`

// applyResumed applies an insertion-only batch that must resume.
func applyResumed(t *testing.T, m *Maintainer, d Delta) DeltaStats {
	t.Helper()
	stats, err := m.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recomputed {
		t.Fatal("insertion-only batch of a resumable program recomputed")
	}
	return stats
}

// TestIncrementalRejectsNonMonotonic: negation and stratified aggregation
// keep a program from resuming, so its insertion batches recompute; a
// monotonic aggregate or an existential head does not.
func TestIncrementalRejectsNonMonotonic(t *testing.T) {
	for _, tc := range []struct {
		src    string
		resume bool
	}{
		{`p(X) :- q(X), not r(X).`, false},
		{`s(X, T) :- q(X), T = sum(X).`, false},
		{`s(X, T) :- q(X), T = msum(X, <X>).`, true},
		{`p(X, Z) :- q(X).`, true},
	} {
		prog := MustParse(tc.src)
		db := NewDatabase()
		db.MustAddFact("q", value.IntV(1))
		m, err := NewMaintainer(prog, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := NewDelta()
		d.AddFact("q", value.IntV(2))
		stats, err := m.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Recomputed == tc.resume {
			t.Errorf("%s: Recomputed = %v", tc.src, stats.Recomputed)
		}
		maintainerVsFresh(t, m, prog)
	}
}

// TestIncrementalTransitiveClosure drives one stream of edges through the
// DRed path (plain transitive closure) and the resume path (tcNullSrc).
func TestIncrementalTransitiveClosure(t *testing.T) {
	for _, src := range []string{tcProgram.String(), tcNullSrc} {
		prog := MustParse(src)
		db := NewDatabase()
		db.MustAddFact("edge", value.Str("a"), value.Str("b"))
		m, err := NewMaintainer(prog, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.DB().Count("tc") != 1 {
			t.Fatalf("initial tc = %d", m.DB().Count("tc"))
		}
		// Adding b->c must derive b->c and a->c.
		d := NewDelta()
		d.AddFact("edge", value.Str("b"), value.Str("c"))
		if _, err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
		if m.DB().Count("tc") != 3 {
			t.Fatalf("tc = %d after b->c", m.DB().Count("tc"))
		}
		// Re-asserting a present fact derives nothing.
		if stats, err := m.Apply(d); err != nil || stats.Added != 0 {
			t.Fatalf("repeated batch: %+v, %v", stats, err)
		}
		// Bridging edge c->a closes the cycle: tc becomes all 9 pairs.
		d = NewDelta()
		d.AddFact("edge", value.Str("c"), value.Str("a"))
		if _, err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
		if m.DB().Count("tc") != 9 {
			t.Fatalf("tc after cycle = %d, want 9", m.DB().Count("tc"))
		}
		maintainerVsFresh(t, m, prog)
	}
}

// TestIncrementalEquivalentToBatch: random edge streams applied one batch at
// a time produce exactly the database a from-scratch run over the full data
// derives, on the DRed and the resume path alike.
func TestIncrementalEquivalentToBatch(t *testing.T) {
	for _, src := range []string{tcProgram.String(), tcNullSrc} {
		prog := MustParse(src)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 10
			type e struct{ x, y int64 }
			var all []e
			for i := 0; i < 25; i++ {
				all = append(all, e{int64(rng.Intn(n)), int64(rng.Intn(n))})
			}
			// Maintained: first 10 edges at start, then 3 batches of 5.
			db := NewDatabase()
			for _, ed := range all[:10] {
				db.MustAddFact("edge", value.IntV(ed.x), value.IntV(ed.y))
			}
			m, err := NewMaintainer(prog, db, Options{})
			if err != nil {
				return false
			}
			for batch := 10; batch < len(all); batch += 5 {
				d := NewDelta()
				for _, ed := range all[batch:min(batch+5, len(all))] {
					d.AddFact("edge", value.IntV(ed.x), value.IntV(ed.y))
				}
				if _, err := m.Apply(d); err != nil {
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
			return res.DB.Dump() == m.DB().Dump()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	}
}

// TestIncrementalControl: the monotonic-aggregate accumulators survive
// between batches — adding a stake that completes a joint majority derives
// the control edge without recomputing. A retraction recomputes, and the
// next insertion resumes the rebuilt engine.
func TestIncrementalControl(t *testing.T) {
	prog := MustParse(controlSrc)
	db := NewDatabase()
	for _, c := range []string{"a", "b", "c"} {
		db.MustAddFact("company", value.Str(c))
	}
	db.MustAddFact("owns", value.Str("a"), value.Str("b"), value.FloatV(0.6))
	db.MustAddFact("owns", value.Str("a"), value.Str("c"), value.FloatV(0.3))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	has := func(x, y string) bool {
		for _, f := range m.DB().Facts("controls") {
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
	d := NewDelta()
	d.AddFact("owns", value.Str("b"), value.Str("c"), value.FloatV(0.3))
	if stats := applyResumed(t, m, d); stats.Added != 2 {
		t.Errorf("Added = %d, want the stake and controls(a,c)", stats.Added)
	}
	if !has("a", "c") {
		t.Errorf("joint control not derived incrementally: %v", m.DB().SortedFacts("controls"))
	}
	maintainerVsFresh(t, m, prog)

	// a sells its 30% of c: a no longer controls c.
	d = NewDelta()
	d.DelFact("owns", value.Str("a"), value.Str("c"), value.FloatV(0.3))
	stats, err := m.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Recomputed || has("a", "c") {
		t.Fatalf("retraction: Recomputed = %v, controls = %v", stats.Recomputed, m.DB().SortedFacts("controls"))
	}
	// It buys 25% back: 0.25 + b's 0.3 resumes from the rebuilt state.
	d = NewDelta()
	d.AddFact("owns", value.Str("a"), value.Str("c"), value.FloatV(0.25))
	applyResumed(t, m, d)
	if !has("a", "c") {
		t.Errorf("joint control not derived after the retraction: %v", m.DB().SortedFacts("controls"))
	}
	maintainerVsFresh(t, m, prog)
}

// TestIncrementalControlEquivalence: streaming random stakes one at a time
// matches the batch control computation exactly, without one recompute.
func TestIncrementalControlEquivalence(t *testing.T) {
	prog := MustParse(controlSrc)
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
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stakes {
		d := NewDelta()
		d.AddFact("owns", value.IntV(s.x), value.IntV(s.y), value.FloatV(s.w))
		applyResumed(t, m, d)
	}
	// controls carries no running sum, so the whole database is order
	// independent and equals a fresh run's.
	maintainerVsFresh(t, m, prog)
}

// TestIncrementalExistentials: each streamed task gets its own labelled
// null.
func TestIncrementalExistentials(t *testing.T) {
	prog := MustParse(`
		assigned(X, T) :- task(X).
	`)
	db := NewDatabase()
	db.MustAddFact("task", value.Str("t1"))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.AddFact("task", value.Str("t2"))
	applyResumed(t, m, d)
	facts := m.DB().SortedFacts("assigned")
	if len(facts) != 2 {
		t.Fatalf("assigned = %v", facts)
	}
	if value.Equal(facts[0][1], facts[1][1]) {
		t.Errorf("distinct tasks must get distinct nulls")
	}
	maintainerVsFresh(t, m, prog)
}

// TestIncrementalTimeout: Options.Timeout bounds the initial fixpoint and,
// separately, each resumed batch; a timed-out batch is rolled back.
func TestIncrementalTimeout(t *testing.T) {
	prog := MustParse(`
		nat(Y) :- nat(X), Y = X + 1, Y < 100000000.
		seen(X, N) :- nat(X).
	`)
	db := NewDatabase()
	db.MustAddFact("nat", value.IntV(0))
	_, err := NewMaintainer(prog, db, Options{Timeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("initial run: err = %v, want ErrTimeout", err)
	}

	m, err := NewMaintainer(prog, NewDatabase(), Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	before := m.DB().Dump()
	d := NewDelta()
	d.AddFact("nat", value.IntV(0))
	if _, err := m.Apply(d); !errors.Is(err, ErrTimeout) {
		t.Fatalf("resumed batch: err = %v, want ErrTimeout", err)
	}
	if got := m.DB().Dump(); got != before {
		t.Fatalf("timed-out batch left the database changed:\n%s", got)
	}
	if len(m.AssertedFacts("nat")) != 0 {
		t.Fatal("timed-out batch left its fact asserted")
	}
}
