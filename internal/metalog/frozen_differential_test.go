package metalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// The differential sweep: every generated MetaLog query must produce
// byte-identical rows whether it reads the mutable graph or its frozen
// snapshot. This is the acceptance gate of the two-phase storage refactor —
// pg.Frozen is a drop-in View, not an approximation.

// diffGraph builds a randomized shareholding-shaped graph guaranteeing every
// label of the query templates is inhabited.
func diffGraph(r *rand.Rand) *pg.Graph {
	g := pg.New()
	nCompanies := 4 + r.Intn(12)
	nPersons := 3 + r.Intn(8)
	var companies, persons []pg.OID
	for i := 0; i < nCompanies; i++ {
		props := pg.Props{"name": value.Str(fmt.Sprintf("c%d", i))}
		if r.Intn(2) == 0 {
			props["cap"] = value.FloatV(float64(r.Intn(5000)) / 3)
		}
		labels := []string{"Company"}
		if r.Intn(4) == 0 {
			labels = append(labels, "Listed")
		}
		companies = append(companies, g.AddNode(labels, props).ID)
	}
	for i := 0; i < nPersons; i++ {
		props := pg.Props{"name": value.Str(fmt.Sprintf("p%d", i))}
		if r.Intn(2) == 0 {
			props["age"] = value.IntV(int64(20 + r.Intn(60)))
		}
		persons = append(persons, g.AddNode([]string{"Person"}, props).ID)
	}
	for i := 0; i < nCompanies*3; i++ {
		from := companies[r.Intn(len(companies))]
		to := companies[r.Intn(len(companies))]
		g.MustAddEdge(from, to, "OWNS", pg.Props{"pct": value.FloatV(float64(r.Intn(100)) / 100)})
	}
	for i := 0; i < nPersons*2; i++ {
		g.MustAddEdge(persons[r.Intn(len(persons))], companies[r.Intn(len(companies))],
			"WORKS_FOR", nil)
	}
	return g
}

// diffQueries are the pattern templates of the sweep, all valid against
// diffGraph's catalog.
var diffQueries = []string{
	`(x: Company)`,
	`(x: Person; name: n)`,
	`(x: Company; name: n), (y: Person)`,
	`(x: Company) [: OWNS] (y: Company)`,
	`(x: Company) [e: OWNS] (y: Company), x != y`,
	`(p: Person) [: WORKS_FOR] (c: Company; name: n)`,
	`(x: Company) [: OWNS] (y: Company) [: OWNS] (z: Company)`,
	`(x: Company) ([: OWNS])+ (y: Company)`,
	`(p: Person; age: a), a > 30`,
	`(x: Listed), (x: Company; name: n)`,
	`(p: Person) [: WORKS_FOR] (c: Company) [: OWNS] (d: Company), c != d`,
	`(x: Company; cap: k), k > 100`,
}

// renderRows serializes query rows deterministically for byte comparison.
func renderRows(rows []QueryRow) string {
	var b strings.Builder
	for _, row := range rows {
		names := make([]string, 0, len(row))
		for k := range row {
			names = append(names, k)
		}
		sort.Strings(names)
		for i, k := range names {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(row[k].Canonical())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// substrateEqual requires the three passes a serving generation is built
// from — inferred catalog, extracted facts, planner statistics — to agree
// between two views of the same graph, the facts position for position.
func substrateEqual(t *testing.T, tag string, got, want pg.View) {
	t.Helper()
	gc, wc := FromGraph(got), FromGraph(want)
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: catalogs diverge:\n%v\n%v", tag, gc, wc)
	}
	gdb, err := ExtractFacts(got, gc)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	wdb, err := ExtractFacts(want, wc)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	factsDBEqual(t, tag, gdb, wdb)
	if gs, ws := ComputePlanStats(got, gc), ComputePlanStats(want, wc); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: planner statistics diverge:\n%+v\n%+v", tag, gs, ws)
	}
}

// TestFrozenDifferentialSweep runs >100 generated queries against the
// mutable graph and its frozen snapshot and requires byte-identical rows;
// the substrate passes must agree across all three views — mutable, frozen,
// and an overlay with pending batches against its own compaction.
func TestFrozenDifferentialSweep(t *testing.T) {
	queries := 0
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := diffGraph(rng)
		f := g.Freeze()

		// Catalog, facts and statistics must agree before any query runs.
		substrateEqual(t, fmt.Sprintf("seed %d, frozen vs mutable", seed), f, g)

		// "Listed" is a label and, here, a property key too: Freeze interns
		// it with the labels, so the compaction's rows hold it ahead of keys
		// that sort before it by name.
		ov := overlay.New(f)
		for batch := 0; batch < 3; batch++ {
			ops := randDeltaOps(rng, ov, []string{"Company", "Listed", "Person"},
				[]string{"OWNS", "WORKS_FOR"}, []string{"Listed", "age", "cap", "name"})
			if _, err := ov.Apply(ops); err != nil {
				t.Fatalf("seed %d, batch %d: %v", seed, batch, err)
			}
		}
		compacted, err := ov.Compact()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		substrateEqual(t, fmt.Sprintf("seed %d, overlay vs compaction", seed), ov, compacted)

		for _, q := range diffQueries {
			queries++
			mrows, merr := Query(g, q, vadalog.Options{})
			frows, ferr := Query(f, q, vadalog.Options{})
			if (merr == nil) != (ferr == nil) {
				t.Fatalf("seed %d, query %q: error mismatch: %v vs %v", seed, q, merr, ferr)
			}
			if merr != nil {
				t.Fatalf("seed %d, query %q: %v", seed, q, merr)
			}
			if m, fr := renderRows(mrows), renderRows(frows); m != fr {
				t.Fatalf("seed %d, query %q: rows diverge:\nmutable:\n%s\nfrozen:\n%s", seed, q, m, fr)
			}
		}
	}
	if queries < 100 {
		t.Fatalf("sweep ran only %d queries; the acceptance gate requires >= 100", queries)
	}
}

// TestFrozenQueryConcurrent runs the same query from 8 goroutines against
// one shared snapshot (under -race in make test-race): ExtractFacts and the
// whole query pipeline must be read-only on the frozen path.
func TestFrozenQueryConcurrent(t *testing.T) {
	g := diffGraph(rand.New(rand.NewSource(99)))
	f := g.Freeze()
	const q = `(x: Company) [e: OWNS] (y: Company), x != y`
	want, err := Query(g, q, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantStr := renderRows(want)

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows, err := Query(f, q, vadalog.Options{})
			if err != nil {
				errs <- fmt.Errorf("reader %d: %v", w, err)
				return
			}
			if got := renderRows(rows); got != wantStr {
				errs <- fmt.Errorf("reader %d: rows diverged from mutable reference", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
