package metalog

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// TestReasonRollsBackUnderSavepoint: Materialize writes derived properties
// through the graph's journaled mutators, so a caller's savepoint undoes a
// whole Reason — new labels, new nodes and edges, and properties set on
// nodes that already existed (both the head-node and the mtv_set_ update
// shape).
func TestReasonRollsBackUnderSavepoint(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"A"}, pg.Props{"k": value.Str("x"), "seen": value.IntV(0)}).ID
	b := g.AddNode([]string{"A"}, pg.Props{"k": value.Str("y")}).ID
	g.MustAddEdge(a, b, "R", nil)
	serial := func() string {
		var buf bytes.Buffer
		if err := pg.WriteJSON(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	before := serial()

	prog := MustParse(`
		(x: A; k: n) -> (x: B; name: n).
		(x: A) [: R] (y: A), c = count() -> (y: A; seen: c).
		(x: A; k: n) -> (#sk(n): C; name: n), (x) [e: MADE] (#sk(n): C).
	`)
	snap := g.Begin()
	res, err := Reason(context.Background(), prog, g, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Materialize.PropsSet < 4 || g.Node(b).Props["seen"].I != 1 || !g.Node(a).HasLabel("B") {
		t.Fatalf("reasoning did not write what the test rolls back: %+v", res.Materialize)
	}
	snap.Rollback()
	if after := serial(); after != before {
		t.Fatalf("rollback left derived state in the graph:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestQueryDBUnderPreparedCatalog is the kgquery -explain shape: prepare
// against the graph-inferred catalog with statistics, and run over the view.
// The Prepared extends a catalog of its own, so a pattern naming an absent
// property is not stale against the database it extracts — and the caller's
// catalog is left as it was.
func TestQueryDBUnderPreparedCatalog(t *testing.T) {
	f := queryGraph(t).Freeze()
	for _, pattern := range []string{
		`(x: Business; nope: n) [: OWNS] (y: Business)`,
		`(x: Business) [: OWNS; nope: n] (y: Business)`,
	} {
		cat := FromGraph(f)
		before := cat.Clone()
		prep, err := PrepareQuery(cat, pattern, ComputePlanStats(f, cat))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cat, before) {
			t.Fatalf("pattern %q: PrepareQuery extended its caller's catalog", pattern)
		}
		got, err := prep.QueryView(context.Background(), f, vadalog.Options{})
		if err != nil {
			t.Fatalf("pattern %q: %v", pattern, err)
		}
		want, err := Query(f, pattern, vadalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 || renderRows(got) != renderRows(want) {
			t.Fatalf("pattern %q: planned rows\n%s\nwant\n%s", pattern, renderRows(got), renderRows(want))
		}
	}
}
