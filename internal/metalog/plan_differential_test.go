package metalog

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// The planner differential sweep: every generated query must produce
// byte-identical rows whether the engine runs the written-order program or
// the cost-based transformation (join reordering + demand), at one worker
// and at eight. This is the acceptance gate of the query-planning refactor —
// the planner is a pure program transformation, never a semantics change.

// preparedRows runs a pattern through the planned path: statistics catalog,
// PrepareQuery, QueryView (a fresh extraction under the Prepared's catalog).
func preparedRows(t *testing.T, f *pg.Frozen, pattern string, workers int) ([]QueryRow, *Prepared) {
	t.Helper()
	cat := FromGraph(f)
	st := ComputePlanStats(f, cat)
	prep, err := PrepareQuery(cat, pattern, st)
	if err != nil {
		t.Fatalf("prepare %q: %v", pattern, err)
	}
	rows, err := prep.QueryView(context.Background(), f, vadalog.Options{Workers: workers})
	if err != nil {
		t.Fatalf("planned run %q: %v", pattern, err)
	}
	return rows, prep
}

func TestPlannedDifferentialSweep(t *testing.T) {
	for _, workers := range []int{1, 8} {
		queries, planned := 0, 0
		for seed := int64(0); seed < 10; seed++ {
			g := diffGraph(rand.New(rand.NewSource(seed)))
			f := g.Freeze()
			for _, q := range diffQueries {
				queries++
				want, err := Query(f, q, vadalog.Options{Workers: workers})
				if err != nil {
					t.Fatalf("seed %d, query %q: %v", seed, q, err)
				}
				got, prep := preparedRows(t, f, q, workers)
				if prep.Planned() {
					planned++
				}
				if w, g := renderRows(want), renderRows(got); w != g {
					t.Fatalf("workers=%d seed %d, query %q diverged:\nunplanned:\n%s\nplanned:\n%s",
						workers, seed, q, w, g)
				}
			}
		}
		if queries < 100 {
			t.Fatalf("sweep ran only %d queries; the acceptance gate requires >= 100", queries)
		}
		if planned == 0 {
			t.Fatal("no query of the sweep was actually planned; the differential is vacuous")
		}
		t.Logf("workers=%d: %d queries, %d planned", workers, queries, planned)
	}
}

// TestPreparedProvenanceUsesWrittenOrder proves provenance runs take the
// written-order program even when a planned one exists: proof trees must
// explain the program as written.
func TestPreparedProvenanceUsesWrittenOrder(t *testing.T) {
	g := diffGraph(rand.New(rand.NewSource(3)))
	f := g.Freeze()
	const q = `(x: Company; name: n) [: OWNS] (y: Company)`
	cat := FromGraph(f)
	st := ComputePlanStats(f, cat)
	prep, err := PrepareQuery(cat, q, st)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ExtractFacts(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := prep.QueryDB(context.Background(), db, vadalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Query(f, q, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(rows) != renderRows(want) {
		t.Fatal("provenance run diverged from the written-order reference")
	}
}

// TestPreparedStaleDatabase: staleness is decided where a Prepared meets a
// database. A planned pattern over an unknown label runs against the
// pre-extracted database (the relation is simply empty); one that widens a
// known label's layout is refused with ErrStaleDatabase, and QueryView —
// extraction under the Prepared's own catalog — answers like one-shot Query.
func TestPreparedStaleDatabase(t *testing.T) {
	g := diffGraph(rand.New(rand.NewSource(5)))
	f := g.Freeze()
	cat := FromGraph(f)
	st := ComputePlanStats(f, cat)
	db, err := ExtractFacts(f, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pattern string
		stale   bool
	}{
		{`(x: NoSuchLabel)`, false},
		{`(x: Company) [: NO_SUCH_EDGE] (y: Company)`, false},
		{`(x: Company; nope: n) [: OWNS] (y: Company)`, true},
		{`(x: Company) [: OWNS; nope: n] (y: Company)`, true},
	} {
		prep, err := PrepareQuery(cat.Clone(), tc.pattern, st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Query(f, tc.pattern, vadalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := prep.QueryDB(context.Background(), db, vadalog.Options{})
		if tc.stale != errors.Is(err, ErrStaleDatabase) || (!tc.stale && err != nil) {
			t.Fatalf("pattern %q: QueryDB err = %v, want stale = %v", tc.pattern, err, tc.stale)
		}
		if tc.stale {
			if got, err = prep.QueryView(context.Background(), f, vadalog.Options{}); err != nil {
				t.Fatalf("pattern %q: QueryView: %v", tc.pattern, err)
			}
		}
		if renderRows(got) != renderRows(want) {
			t.Fatalf("pattern %q diverged from Query:\n%s\nvs\n%s", tc.pattern, renderRows(got), renderRows(want))
		}
	}
}

// TestRepeatedVariableMatchesByIdentity: a pattern variable bound twice by
// one atom matches by identity, as a join does — Int 1 and Float 1.0 differ
// — so the planned program, which may evaluate that atom first, answers like
// the written-order one, which probes it with the variable already bound.
func TestRepeatedVariableMatchesByIdentity(t *testing.T) {
	g := pg.New()
	kinds := g.AddNode([]string{"N"}, pg.Props{"a": value.IntV(1), "b": value.FloatV(1)})
	same := g.AddNode([]string{"N"}, pg.Props{"a": value.IntV(2), "b": value.IntV(2)})
	for i := 0; i < 40; i++ {
		r := g.AddNode([]string{"R"}, pg.Props{"k": value.IntV(int64(1 + i%2))})
		for _, n := range []*pg.Node{kinds, same} {
			if _, err := g.AddEdge(r.ID, n.ID, "E", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := g.Freeze()
	for q, want := range map[string]int{
		`(x: N; a: v, b: v)`:                            1,
		`(r: R; k: v) [: E] (x: N; a: v, b: v)`:         20,
		`(x: N; a: v, b: v) [: E]- (r: R; k: v)`:        20,
		`(x: N; a: v, b: w) [: E]- (r: R; k: v), w = v`: 40,
	} {
		unplanned, err := Query(f, q, vadalog.Options{})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		planned, prep := preparedRows(t, f, q, 1)
		if renderRows(planned) != renderRows(unplanned) || len(unplanned) != want {
			t.Errorf("%q (planned %v): %d planned rows, %d written-order rows, want %d\n%s\nvs\n%s",
				q, prep.Planned(), len(planned), len(unplanned), want, renderRows(planned), renderRows(unplanned))
		}
		for _, row := range unplanned {
			if v := row["v"]; len(unplanned) < 40 && (v.K != value.Int || v.I != 2) {
				t.Errorf("%q: v bound to %s %s", q, v.K, v)
			}
		}
	}
}

// BenchmarkComputePlanStats is the statistics pass every serving generation
// built from a base pays (cold start, reload, compaction, WAL recovery),
// over the serve workloads' streamed 10k-company graph.
func BenchmarkComputePlanStats(b *testing.B) {
	ld := pg.NewBulkLoader(1)
	if _, err := fingraph.StreamTopology(fingraph.DefaultConfig(10_000, 1), fingraph.StreamOptions{}, ld); err != nil {
		b.Fatal(err)
	}
	frozen, err := ld.Finish()
	if err != nil {
		b.Fatal(err)
	}
	cat := FromGraph(frozen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputePlanStats(frozen, cat)
	}
}
