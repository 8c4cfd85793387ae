package vadalog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/value"
)

// controlStratumSrc has the shape the MetaLog translation gives the E14
// control component: the stratified sum compacting holdings into owns shares
// a stratum with the recursive monotonic control rule, so owns is a growing
// occurrence of that rule whose delta window stays empty in every round.
const controlStratumSrc = `
	owns(P, Y, W) :- holds(P, S, H), belongs(S, Y), W = sum(H).
	controls(X, X) :- company(X).
	controls(X, Y) :- company(X), controls(X, Z), company(Z), owns(Z, Y, W), company(Y),
		V = msum(W, <Z>), V > 0.5.
`

// controlChainDB is a majority chain c0 → c1 → … → c(n-1), each stake held
// through one share, plus a company d_i beside every link that c_i and
// c(i+1) control only jointly (two 0.15 shares and one 0.3 share).
func controlChainDB(n int) *Database {
	db := NewDatabase()
	c := func(i int) value.Value { return value.Str(fmt.Sprintf("c%d", i)) }
	d := func(i int) value.Value { return value.Str(fmt.Sprintf("d%d", i)) }
	share := 0
	hold := func(p, y value.Value, h float64) {
		share++
		s := value.IntV(int64(share))
		db.MustAddFact("holds", p, s, value.FloatV(h))
		db.MustAddFact("belongs", s, y)
	}
	for i := 0; i < n; i++ {
		db.MustAddFact("company", c(i))
		db.MustAddFact("company", d(i))
		if i+1 < n {
			hold(c(i), c(i+1), 0.6)
			hold(c(i), d(i), 0.15)
			hold(c(i), d(i), 0.15)
			hold(c(i+1), d(i), 0.3)
		}
	}
	return db
}

// ruleStats returns the trace counters of rule idx and the number of delta
// rounds the run recorded.
func ruleStats(t *testing.T, tr *obs.Trace, idx int) (obs.RuleStats, int) {
	t.Helper()
	runs := tr.Runs()
	rt := runs[len(runs)-1]
	deltaRounds := 0
	for _, r := range rt.Rounds {
		if r.Round > 0 {
			deltaRounds++
		}
	}
	return rt.Rules[idx], deltaRounds
}

// TestDeltaRoundsSkipEmptyWindows: a growing occurrence whose delta window is
// empty cannot complete a match, so semi-naive rounds do not evaluate it —
// except where a monotonic aggregate precedes it and the evaluation would
// still feed the aggregate's accumulator.
func TestDeltaRoundsSkipEmptyWindows(t *testing.T) {
	const n = 30
	prog := MustParse(controlStratumSrc)

	t.Run("E14 shape", func(t *testing.T) {
		tr := obs.NewTrace()
		res, err := Run(prog, controlChainDB(n), Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		rs, rounds := ruleStats(t, tr, 2)
		if rounds < n {
			t.Fatalf("only %d delta rounds on a depth-%d chain", rounds, n)
		}
		// Round 0 plus one evaluation per round through controls' window;
		// owns' window is empty in every round.
		if rs.Evals != int64(1+rounds) {
			t.Errorf("control rule evaluated %d times over %d delta rounds, want %d", rs.Evals, rounds, 1+rounds)
		}
		// Evaluating owns' empty window as well walks company × controls ×
		// company before reaching it: 45,312 probes on this input against
		// 6,682 without.
		if rs.Probes > 10000 {
			t.Errorf("control rule made %d probes", rs.Probes)
		}
		naive, err := Run(prog, controlChainDB(n), Options{Naive: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.DB.Dump() != naive.DB.Dump() {
			t.Error("semi-naive database differs from the naive one")
		}
		// The self-pairs, c_i over every later c_j, and c_i over d_j for
		// j ≥ i (d(n-1) has no holders).
		if got, want := len(res.Output("controls")), 2*n+n*(n-1); got != want {
			t.Errorf("%d controls facts, want %d", got, want)
		}
	})

	t.Run("Maintainer.Apply", func(t *testing.T) {
		// A stratified aggregate would keep the program from resuming: owns
		// is input here, and the chain's middle stake arrives last.
		incProg := MustParse(`
			controls(X, X) :- company(X).
			controls(X, Y) :- company(X), controls(X, Z), company(Z), owns(Z, Y, W), company(Y),
				V = msum(W, <Z>), V > 0.5.
		`)
		full := NewDatabase()
		for i := 0; i < n; i++ {
			full.MustAddFact("company", value.IntV(int64(i)))
		}
		for i := 0; i+1 < n; i++ {
			if i != n/2 {
				full.MustAddFact("owns", value.IntV(int64(i)), value.IntV(int64(i+1)), value.FloatV(0.6))
			}
		}
		m, err := NewMaintainer(incProg, full.Clone(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The maintainer disables tracing; trace the kept engine directly.
		tr := obs.NewTrace()
		e := m.eng
		e.trace = tr.StartRun()
		for _, cr := range e.rules {
			e.trace.DeclareRule(cr.idx, cr.rule.Line, ruleLabel(cr))
		}
		last := []value.Value{value.IntV(n / 2), value.IntV(n/2 + 1), value.FloatV(0.6)}
		d := NewDelta()
		d.AddFact("owns", last...)
		applyResumed(t, m, d)
		rs, rounds := ruleStats(t, tr, 1)
		if rounds < n/2 {
			t.Fatalf("the resumed batch ran %d rounds", rounds)
		}
		// The first round reads the new owns stake and an empty controls
		// window, every later one the reverse: one evaluation per round.
		if rs.Evals != int64(rounds) {
			t.Errorf("the resumed batch evaluated the control rule %d times over %d rounds, want %d", rs.Evals, rounds, rounds)
		}
		full.MustAddFact("owns", last...)
		batch, err := Run(incProg, full, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.DB().Dump(), batch.DB.Dump(); got != want {
			t.Error("resumed database differs from the batch run")
		}
	})

	t.Run("aggregate before the delta step", func(t *testing.T) {
		// h's mcount precedes g, whose window is empty from round 1 on. The
		// cut of FirstMatchOnly leaves b(x,3) unabsorbed in round 0; the
		// round-2 evaluation through g's empty window absorbs it, so the
		// round-3 contribution of b(x,5) counts 5, not 4.
		prog := MustParse(`
			g(X) :- gseed(X).
			b(X, C) :- bseed(X, C).
			b(X, C) :- b(X, C0), next(C0, C).
			h(X, V) :- a(X), b(X, C), V = mcount(<C>), g(X).
		`)
		prog.Rules[3].FirstMatchOnly = true
		db := NewDatabase()
		x := value.Str("x")
		db.MustAddFact("gseed", x)
		db.MustAddFact("a", x)
		db.MustAddFact("bseed", x, value.IntV(1))
		db.MustAddFact("bseed", x, value.IntV(2))
		for c := int64(2); c < 5; c++ {
			db.MustAddFact("next", value.IntV(c), value.IntV(c+1))
		}
		tr := obs.NewTrace()
		res, err := Run(prog, db, Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Join(factStrings(res.Output("h")), " "), "(x,1) (x,2) (x,3) (x,5)"; got != want {
			t.Errorf("h = %s, want %s", got, want)
		}
		// Round 0, g's occurrence in each of the four delta rounds, and b's
		// in the three whose b window is not empty.
		rs, rounds := ruleStats(t, tr, 3)
		if rounds != 4 || rs.Evals != 8 {
			t.Errorf("h evaluated %d times over %d delta rounds, want 8 over 4", rs.Evals, rounds)
		}
	})
}
