package vadalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/value"
)

// ---------------------------------------------------------------------------
// Differential wall for incremental maintenance: on randomly generated
// programs, (initial fixpoint → mutation batches through Maintainer.Apply)
// must be result-identical to (mutate the source EDB → full rebuild), at
// every batch boundary, for sequential and parallel engines alike. Batches
// mix additions with retractions, including retraction-only batches that
// drive DRed through heavy over-deletion. Programs fall in three classes:
// DRed, resumed (a monotonic aggregate or an existential head: insertion-only
// batches resume the kept engine) and recomputed (negation or a stratified
// aggregate).
// ---------------------------------------------------------------------------

// generateMaintProgram emits a random program from the DRed class — joins,
// recursion, filters, assignments, Skolem heads, multi-head rules, unions —
// and, a fraction of the time, one with a monotonic sum or an existential
// head (resumed) or with negation or a stratified sum (recomputed), so every
// maintenance path is swept by the same differential check. A monotonic sum
// keeps its running value out of the head: only the threshold's outcome is
// independent of the order contributions arrive in.
func generateMaintProgram(rng *rand.Rand) string {
	var b strings.Builder
	bins := []string{"e"}    // arity-2 predicates usable as join inputs
	uns := []string{"n"}     // arity-1 predicates
	intBins := []string{"e"} // arity-2 with integer columns (filters, arithmetic)
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	idx := 0
	fresh := func(prefix string) string { idx++; return fmt.Sprintf("%s%d", prefix, idx) }

	nRules := 3 + rng.Intn(4)
	for i := 0; i < nRules; i++ {
		switch rng.Intn(12) {
		case 0, 1: // join of two earlier binaries
			p := fresh("j")
			fmt.Fprintf(&b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", p, pick(bins), pick(bins))
			bins = append(bins, p)
		case 2: // recursive closure (the DRed stress shape)
			p := fresh("t")
			base := pick(intBins)
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y).\n", p, base)
			fmt.Fprintf(&b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", p, p, base)
			bins = append(bins, p)
			intBins = append(intBins, p)
		case 3: // comparison filter over integer columns
			p := fresh("f")
			src := pick(intBins)
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y), X < Y.\n", p, src)
			bins = append(bins, p)
			intBins = append(intBins, p)
		case 4: // arithmetic assignment (the delta-rule front-load hazard)
			p := fresh("a")
			src := pick(intBins)
			fmt.Fprintf(&b, "%s(X,V) :- %s(X,Y), V = Y + 1.\n", p, src)
			bins = append(bins, p)
			intBins = append(intBins, p)
		case 5: // explicit Skolem head (supported incrementally)
			p := fresh("k")
			fmt.Fprintf(&b, "%s(#f%d(X), X) :- %s(X).\n", p, idx, pick(uns))
			bins = append(bins, p)
		case 6: // multi-head rule (one re-derivation guard per head)
			p1, p2 := fresh("h"), fresh("h")
			fmt.Fprintf(&b, "%s(X), %s(X) :- %s(X).\n", p1, p2, pick(uns))
			uns = append(uns, p1, p2)
		case 7: // union of two earlier binaries
			p := fresh("o")
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y).\n", p, pick(bins))
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y).\n", p, pick(bins))
			bins = append(bins, p)
		case 8: // unary projection
			p := fresh("u")
			fmt.Fprintf(&b, "%s(X) :- %s(X,Y).\n", p, pick(bins))
			uns = append(uns, p)
		case 9: // recomputed: negation or a stratified sum
			p := fresh("z")
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "%s(X) :- %s(X), not %s(X,X).\n", p, pick(uns), pick(bins))
				uns = append(uns, p)
			} else {
				fmt.Fprintf(&b, "%s(X,V) :- %s(X,Y), V = sum(Y).\n", p, pick(intBins))
				bins = append(bins, p)
			}
		case 10: // resumed: a monotonic sum under a threshold
			p := fresh("m")
			src := pick(intBins)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "%s(X) :- %s(X,Y), V = msum(Y, <Y>), V > %d.\n", p, src, rng.Intn(12))
				uns = append(uns, p)
			} else { // the control shape: recursion through the sum
				fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y), X < Y.\n", p, src)
				fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Z), %s(Z,Y), V = msum(Y, <Z>), V > %d.\n", p, p, src, rng.Intn(16))
				bins = append(bins, p)
			}
		case 11: // resumed: an existential head
			p := fresh("x")
			fmt.Fprintf(&b, "%s(X,N) :- %s(X,Y).\n", p, pick(bins))
			bins = append(bins, p)
		}
	}
	return b.String()
}

// randomMaintEDB seeds the extensional predicates n/1 and e/2.
func randomMaintEDB(rng *rand.Rand) *Database {
	db := NewDatabase()
	nodes := 6 + rng.Intn(5)
	for i := 0; i < nodes; i++ {
		db.MustAddFact("n", value.IntV(int64(i)))
	}
	edges := 10 + rng.Intn(15)
	for i := 0; i < edges; i++ {
		db.MustAddFact("e",
			value.IntV(int64(rng.Intn(nodes))), value.IntV(int64(rng.Intn(nodes))))
	}
	return db
}

// maintBatch draws a mutation batch against the maintainer's current EDB.
// kind 0: mixed additions and retractions; kind 1: retraction-only and heavy
// (up to half the asserted edges at once — the DRed over-deletion stress);
// kind 2: addition-only.
func maintBatch(rng *rand.Rand, m *Maintainer, kind int) Delta {
	d := NewDelta()
	if kind != 1 { // additions
		adds := 1 + rng.Intn(4)
		for i := 0; i < adds; i++ {
			if rng.Intn(4) == 0 {
				d.AddFact("n", value.IntV(int64(rng.Intn(20))))
			} else {
				d.AddFact("e", value.IntV(int64(rng.Intn(12))), value.IntV(int64(rng.Intn(12))))
			}
		}
	}
	if kind != 2 { // retractions, drawn from currently asserted EDB facts
		edges := m.AssertedFacts("e")
		want := 1 + rng.Intn(3)
		if kind == 1 {
			want = 1 + len(edges)/2
		}
		for _, pos := range rng.Perm(len(edges)) {
			if want == 0 {
				break
			}
			d.DelFact("e", edges[pos]...)
			want--
		}
		if kind == 1 {
			nodes := m.AssertedFacts("n")
			if len(nodes) > 0 {
				d.DelFact("n", nodes[rng.Intn(len(nodes))]...)
			}
		}
	}
	return d
}

// applyToEDB folds a delta into the plain EDB mirror kept for the reference
// rebuilds. Deletions first, then additions — the maintainer's own batch
// order.
func applyToEDB(t *testing.T, edb *Database, d Delta) {
	t.Helper()
	for pred, facts := range d.Del {
		r := edb.Relation(pred)
		if r == nil {
			t.Fatalf("reference EDB missing %s", pred)
		}
		if removed := r.Remove(facts); len(removed) != len(facts) {
			t.Fatalf("reference EDB removed %d/%d facts from %s", len(removed), len(facts), pred)
		}
	}
	for pred, facts := range d.Add {
		for _, f := range facts {
			if _, err := edb.AddFact(pred, f...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMaintainerDifferential is the incremental-maintenance wall: 120
// generated programs, three mutation batches each (mixed, retraction-heavy,
// addition-only), checked against a from-scratch rebuild after every batch,
// at Workers=1 and Workers=8. Zero divergence is the acceptance bar, and
// each batch must take its class's path.
func TestMaintainerDifferential(t *testing.T) {
	shrinkShards(t)
	const total = 120
	rng := rand.New(rand.NewSource(23))
	var dred, resumed, recomputed int

	for i := 0; i < total; i++ {
		src := generateMaintProgram(rng)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("program %d does not parse: %v\n%s", i, err, src)
		}
		edb0 := randomMaintEDB(rng)

		// Pre-draw the batches so both worker settings see the same ones.
		// Batches are drawn against the W=1 maintainer's asserted state;
		// asserted EDB evolution is deterministic and worker-independent, so
		// they are valid for W=8 too.
		seqM, err := NewMaintainer(prog, edb0.Clone(), Options{Workers: 1, MaxFacts: 200_000})
		if err != nil {
			t.Fatalf("program %d: maintainer: %v\n%s", i, err, src)
		}
		switch {
		case seqM.Incremental():
			dred++
		case seqM.resumable:
			resumed++
		default:
			recomputed++
		}

		parM, err := NewMaintainer(prog, edb0.Clone(), Options{Workers: 8, MaxFacts: 200_000})
		if err != nil {
			t.Fatalf("program %d: parallel maintainer: %v\n%s", i, err, src)
		}

		refEDB := edb0.Clone()
		for batch, kind := range []int{0, 1, 2} {
			d := maintBatch(rng, seqM, kind)
			wantRecomputed := !seqM.Incremental() && !(seqM.resumable && len(d.Del) == 0)
			for _, m := range []*Maintainer{seqM, parM} {
				stats, err := m.Apply(d)
				if err != nil {
					t.Fatalf("program %d batch %d (W=%d): %v\n%s", i, batch, m.opts.Workers, err, src)
				}
				if stats.Recomputed != wantRecomputed {
					t.Fatalf("program %d batch %d (W=%d): Recomputed = %v\n%s", i, batch, m.opts.Workers, stats.Recomputed, src)
				}
			}

			applyToEDB(t, refEDB, d)
			fresh, err := Run(prog, refEDB.Clone(), Options{Workers: 1, MaxFacts: 200_000})
			if err != nil {
				t.Fatalf("program %d batch %d: reference rebuild: %v\n%s", i, batch, err, src)
			}
			want := fresh.DB.Dump()
			if got := seqM.DB().Dump(); got != want {
				t.Fatalf("program %d batch %d (kind %d): incremental diverges from rebuild\nprogram:\n%s\nincremental:\n%s\nrebuild:\n%s",
					i, batch, kind, src, got, want)
			}
			if got := parM.DB().Dump(); got != want {
				t.Fatalf("program %d batch %d (kind %d): W=8 incremental diverges from rebuild\nprogram:\n%s\nincremental:\n%s\nrebuild:\n%s",
					i, batch, kind, src, got, want)
			}
		}
	}
	if dred == 0 || resumed == 0 || recomputed == 0 {
		t.Fatalf("sweep did not cover every class: %d DRed, %d resumed, %d recomputed", dred, resumed, recomputed)
	}
	t.Logf("120 programs, 3 batches each, W∈{1,8}: zero divergence (%d DRed, %d resumed, %d recomputed)",
		dred, resumed, recomputed)
}
