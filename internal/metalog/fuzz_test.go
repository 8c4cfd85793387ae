package metalog

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/vadalog"
)

// FuzzParse exercises the MetaLog parser for panics and round-trip
// stability.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`(x: Business) -> (x) [c: CONTROLS] (x).`,
		`(x: A) ([: R]- . [: S])* (y: B), v = sum(w, <z>), v > 0.5 -> (#sk(v): C; p: v).`,
		`(x: A) (([: R] | [: S]))+ (y: B) -> (x) [e: D] (y).`,
		`(x: A), not (x: B) -> (x: C).`,
		`(x: A; p: "str", q: 1.5) -> (x: B).`,
		// Once diverged from Vadalog: an exponent the printer emits, and
		// aggregates missing their operands.
		`(x: A; p: c), c > 1e+06 -> (x: B; q: 1e+21).`,
		`(x: A; p: c), v = sum() -> (x: B; q: v).`,
		`(x: A; p: c), v = pack(c) -> (x: B; q: v).`,
		// An integral Float has to print as one: "1" reparses as an Int.
		`(x: L; p: 1.0), x > 2.0 -> (x: B; q: -3.0).`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		printed := prog.String()
		if _, err := Parse(printed); err != nil {
			t.Fatalf("printed form does not reparse: %v\nsource: %q\nprinted: %q", err, src, printed)
		}
	})
}

// FuzzPlanPattern exercises the whole prepare path — parse, translate, plan
// (join ordering + demand) — on arbitrary pattern text. The contract: for any
// input, PrepareQuery either errors or returns a Prepared whose planned
// evaluation matches the written-order evaluation row for row. The planner
// must never panic and never change semantics, whatever shape survives the
// parser. make fuzz-smoke gives this a short budget.
func FuzzPlanPattern(f *testing.F) {
	seeds := []string{
		`(x: Company)`,
		`(x: Company; name: n) [: OWNS] (y: Company), x != y`,
		`(p: Person) [: WORKS_FOR] (c: Company) [: OWNS] (d: Company)`,
		`(x: Company) ([: OWNS])+ (y: Company)`,
		`(x: Company) (([: OWNS] | [: WORKS_FOR]))+ (y: Company)`,
		`(p: Person; age: a), a > 30, (p) [: WORKS_FOR] (c: Company)`,
		`(x: Listed), (x: Company; name: n)`,
		`(x: Company), not (x: Listed)`,
		`(x: Company; cap: k), k > 100, (x) [: OWNS] (y: Company; cap: j), j < k`,
		`(x: Nowhere; ghost: g)`,
		`(x: Company; cap: k), k > 1e+06`,
		`(x: Company; cap: k), v = sum()`,
		`(x: Company; cap: k), v = pack(k)`,
		// Conditions that raise when a binding reaches them: the planner
		// must not move them across a join that is empty here.
		`(x:Company)[:A](),0`,
		`(x: Company), 0, (x) [: A] (y)`,
		`(x: Company; cap: k) [: OWNS] (y: Company; name: "nobody"), k + 1`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	g := diffGraph(rand.New(rand.NewSource(17)))
	frozen := g.Freeze()
	f.Fuzz(func(t *testing.T, pattern string) {
		if len(pattern) > 1<<12 {
			return // bound engine work, not decoder behavior
		}
		cat := FromGraph(frozen)
		st := ComputePlanStats(frozen, cat)
		prep, err := PrepareQuery(cat, pattern, st)
		if err != nil {
			return
		}
		opts := vadalog.Options{Timeout: 2 * time.Second, MaxFacts: 50_000}
		want, werr := Query(frozen, pattern, opts)
		got, gerr := prep.QueryView(context.Background(), frozen, opts)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("pattern %q: error mismatch: unplanned=%v planned=%v", pattern, werr, gerr)
		}
		if werr != nil {
			return
		}
		if w, g := renderRows(want), renderRows(got); w != g {
			t.Fatalf("pattern %q diverged:\nunplanned:\n%s\nplanned:\n%s", pattern, w, g)
		}
	})
}
