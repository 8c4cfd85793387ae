package vadalog

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/value"
)

// The incremental-maintenance acceptance criterion (EXPERIMENTS.md E22): a
// 0.1% edge-churn batch re-materializes in <1% of full-rebuild wall time.
// TestIncrChurnRatio enforces it on every `go test ./...`; the recorded
// numbers for the paper-shaped programs are aux_ms vs op_ms@reason-reach
// and vadalog.maintain_* in the bench/ spine.

const (
	incrNodes     = 2000
	incrEdges     = 20000
	incrChurn     = 20 // 0.1% of incrEdges
	incrMaxFacts  = 1_000_000
	incrBenchProg = `
f(X,Y) :- e(X,Y), X < Y.
p(X,Z) :- f(X,Y), e(Y,Z).
u(X) :- p(X,Y).
`
)

// incrBenchEDB builds the E22 reference EDB: incrNodes node facts and about
// incrEdges random edges (duplicates collapse on insert).
func incrBenchEDB(rng *rand.Rand) *Database {
	db := NewDatabase()
	for i := 0; i < incrNodes; i++ {
		db.MustAddFact("n", value.IntV(int64(i)))
	}
	for i := 0; i < incrEdges; i++ {
		db.MustAddFact("e",
			value.IntV(int64(rng.Intn(incrNodes))), value.IntV(int64(rng.Intn(incrNodes))))
	}
	return db
}

// incrChurnBatches derives a pair of inverse churn batches from the
// maintainer's asserted edge set: batch A retracts `incrChurn` existing
// edges and asserts the same number of fresh ones; batch B undoes A.
// Alternating them keeps the maintained state oscillating between two fixed
// configurations, so every timed application does the same amount of work.
func incrChurnBatches(rng *rand.Rand, m *Maintainer) (Delta, Delta) {
	edges := m.AssertedFacts("e")
	present := make(map[[2]int64]bool, len(edges))
	for _, f := range edges {
		a, _ := f[0].AsInt()
		b, _ := f[1].AsInt()
		present[[2]int64{a, b}] = true
	}

	out, back := NewDelta(), NewDelta()
	for _, pos := range rng.Perm(len(edges))[:incrChurn] {
		out.DelFact("e", edges[pos]...)
		back.AddFact("e", edges[pos]...)
	}
	for added := 0; added < incrChurn; {
		pair := [2]int64{int64(rng.Intn(incrNodes)), int64(rng.Intn(incrNodes))}
		if present[pair] {
			continue
		}
		present[pair] = true
		out.AddFact("e", value.IntV(pair[0]), value.IntV(pair[1]))
		back.DelFact("e", value.IntV(pair[0]), value.IntV(pair[1]))
		added++
	}
	return out, back
}

// TestIncrChurnRatio is the E22 acceptance gate in test form: a 0.1%
// edge-churn batch must re-materialize in under 1% of the full-rebuild wall
// time. Both sides are measured as the minimum over repeated runs — the
// apply side over many more, because a ~1ms interval needs far more samples
// than a ~100ms one for its minimum to converge under scheduler and GC
// noise. The steady-state ratio is ~0.8%, so the gate holds with modest but
// real margin; the quotient of two same-machine minima also cancels raw
// machine speed, which keeps the gate meaningful under the race detector.
func TestIncrChurnRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	prog, err := Parse(incrBenchProg)
	if err != nil {
		t.Fatal(err)
	}
	edb := incrBenchEDB(rng)

	full := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := Run(prog, edb.Clone(), Options{Workers: 1, MaxFacts: incrMaxFacts}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < full {
			full = d
		}
	}

	m, err := NewMaintainer(prog, edb.Clone(), Options{Workers: 1, MaxFacts: incrMaxFacts})
	if err != nil {
		t.Fatal(err)
	}
	out, back := incrChurnBatches(rng, m)
	batches := [2]Delta{out, back}
	incr := time.Duration(1<<62 - 1)
	runtime.GC()
	for i := 0; i < 40; i++ {
		start := time.Now()
		if _, err := m.Apply(batches[i%2]); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < incr {
			incr = d
		}
	}

	ratio := float64(incr) / float64(full)
	t.Logf("full rebuild %v, 0.1%% churn apply %v, ratio %.4f%%", full, incr, 100*ratio)
	if ratio >= 0.01 {
		t.Fatalf("0.1%% churn batch took %v = %.2f%% of the %v full rebuild; the gate is <1%%",
			incr, 100*ratio, full)
	}
}
