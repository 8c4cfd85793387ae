package plan

import (
	"strings"
	"testing"

	"repro/internal/vadalog"
	"repro/internal/value"
)

// closureSrc is the canonical demandable shape: a left-linear closure probed
// by a consumer whose prefix binds the closure's start point cheaply.
const closureSrc = `
t(X,Y) :- big(X,Y).
t(X,Z) :- t(X,Y), big(Y,Z).
q(Y) :- small(X,W), t(X,Y).
`

func TestDemandRewritesQualifyingClosure(t *testing.T) {
	prog := mustParse(t, closureSrc)
	planned, pl, err := Compile(prog, testStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Demand) != 1 || pl.Demand[0].Pred != "t" {
		t.Fatalf("demand plans = %+v, want exactly t", pl.Demand)
	}
	dp := pl.Demand[0]
	if dp.Guard != demandPrefix+"t" {
		t.Fatalf("guard = %q", dp.Guard)
	}
	if len(dp.Seeds) != 1 || !strings.Contains(dp.Seeds[0], "small") {
		t.Fatalf("seeds = %v, want one rule over the consumer prefix", dp.Seeds)
	}
	if dp.SeedEst <= 0 || dp.SeedEst > demandSeedFactor*dp.FullEst {
		t.Fatalf("worthiness violated in an accepted rewrite: seed %v full %v", dp.SeedEst, dp.FullEst)
	}
	// The original rules keep their indices (seeds appended), and the base
	// rule is guarded.
	if len(planned.Rules) != len(prog.Rules)+1 {
		t.Fatalf("rule count %d, want %d", len(planned.Rules), len(prog.Rules)+1)
	}
	guarded := false
	for _, r := range planned.Rules[:len(prog.Rules)] {
		for _, l := range r.Body {
			if l.Kind == vadalog.LitAtom && l.Atom.Pred == dp.Guard {
				guarded = true
			}
		}
	}
	if !guarded {
		t.Fatal("no original rule carries the demand guard")
	}
	if prog.Rules[0].Body[0].Atom.Pred == dp.Guard {
		t.Fatal("Compile mutated its input program")
	}
}

// TestDemandSkipsUnsupportedShapes: each variation moves the closure outside
// the supported class and must leave it unrestricted.
func TestDemandSkipsUnsupportedShapes(t *testing.T) {
	cases := map[string]string{
		"output closure": `@output("t").` + closureSrc,
		"negated closure": closureSrc + `
			r(X) :- big(X,Y), not t(X,Y).`,
		"unbound consumer": `
			t(X,Y) :- big(X,Y).
			t(X,Z) :- t(X,Y), big(Y,Z).
			q(X,Y) :- t(X,Y).`,
		"not left-linear": `
			t(X,Y) :- big(X,Y).
			t(X,Z) :- t(X,Y), t(Y,Z).
			q(Y) :- small(X,W), t(X,Y).`,
		"three defining rules": closureSrc + `
			t(X,X) :- small(X,W).`,
		"unworthy seeds": `
			t(X,Y) :- small(X,Y).
			t(X,Z) :- t(X,Y), small(Y,Z).
			q(Y) :- big(X,W), t(X,Y).`,
	}
	for name, src := range cases {
		prog := mustParse(t, src)
		_, pl, err := Compile(prog, testStats())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pl.Demand) != 0 {
			t.Errorf("%s: unexpectedly demanded: %+v", name, pl.Demand)
		}
	}
}

// TestDemandDifferential: the demanded program answers the consumer exactly
// like the unrestricted one — the rewrite narrows only the closure's internal
// extension, never what consumers observe.
func TestDemandDifferential(t *testing.T) {
	prog := mustParse(t, closureSrc)
	planned, pl, err := Compile(prog, testStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Demand) != 1 {
		t.Fatalf("fixture no longer demandable: %+v", pl.Demand)
	}

	db := vadalog.NewDatabase()
	// Two disjoint chains; only the first is demanded (small starts at 0).
	for i := int64(0); i < 20; i++ {
		db.MustAddFact("big", value.IntV(i), value.IntV(i+1))
		db.MustAddFact("big", value.IntV(100+i), value.IntV(101+i))
	}
	db.MustAddFact("small", value.IntV(0), value.IntV(0))

	for _, workers := range []int{1, 4} {
		want, err := vadalog.Run(prog, db, vadalog.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := vadalog.Run(planned, db, vadalog.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		w := renderResult(want, map[string]bool{"q": true})
		g := renderResult(got, map[string]bool{"q": true})
		if w != g || w == "" {
			t.Fatalf("workers=%d consumer diverged (or is empty):\nfull:\n%s\ndemanded:\n%s", workers, w, g)
		}
		// The demanded run must actually have skipped the undemanded chain.
		if full, dem := len(want.DB.SortedFacts("t")), len(got.DB.SortedFacts("t")); dem >= full {
			t.Fatalf("workers=%d: demand did not narrow the closure: %d vs %d facts", workers, dem, full)
		}
	}
}
