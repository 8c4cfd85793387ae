package metalog

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

func queryGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	biz := func(name string, cap float64) pg.OID {
		return g.AddNode([]string{"Business"}, pg.Props{
			"businessName": value.Str(name), "cap": value.FloatV(cap),
		}).ID
	}
	a, b, c := biz("alfa", 100), biz("beta", 50), biz("gamma", 10)
	g.MustAddEdge(a, b, "OWNS", pg.Props{"percentage": value.FloatV(0.7)})
	g.MustAddEdge(b, c, "OWNS", pg.Props{"percentage": value.FloatV(0.6)})
	g.MustAddEdge(a, c, "OWNS", pg.Props{"percentage": value.FloatV(0.1)})
	return g
}

func TestQueryBasic(t *testing.T) {
	g := queryGraph(t)
	rows, err := Query(g, `(x: Business; businessName: n) [: OWNS; percentage: w] (y: Business), w > 0.5`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Deterministic order; columns bound.
	if rows[0]["n"].S != "alfa" || rows[1]["n"].S != "beta" {
		t.Errorf("names = %v, %v", rows[0]["n"], rows[1]["n"])
	}
	if _, ok := rows[0].OID("x"); !ok {
		t.Errorf("x should be an OID: %v", rows[0]["x"])
	}
	if w, _ := rows[0]["w"].AsFloat(); w != 0.7 {
		t.Errorf("w = %v", rows[0]["w"])
	}
}

func TestQueryPathPattern(t *testing.T) {
	g := queryGraph(t)
	rows, err := Query(g, `(x: Business; businessName: "alfa") ([: OWNS])+ (y: Business; businessName: m)`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r["m"].S] = true
	}
	if !names["beta"] || !names["gamma"] {
		t.Errorf("reachable = %v", names)
	}
}

func TestQueryWithExpression(t *testing.T) {
	g := queryGraph(t)
	rows, err := Query(g, `(x: Business; cap: c), d = c * 2, d >= 100`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // alfa (200) and beta (100)
		t.Fatalf("rows = %v", rows)
	}
	if d, _ := rows[0]["d"].AsFloat(); d != 200 && d != 100 {
		t.Errorf("d = %v", rows[0]["d"])
	}
}

func TestQueryNegation(t *testing.T) {
	g := queryGraph(t)
	// Businesses nobody owns: only alfa.
	rows, err := Query(g, `(x: Business; businessName: n), (y: Business), not (y) [: OWNS] (x), x != y`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Row per (x, y) pair where y does not own x; alfa is never owned, so it
	// pairs with both others; beta is not owned by gamma; gamma not by...
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	unowned := map[string]int{}
	for _, r := range rows {
		unowned[r["n"].S]++
	}
	if unowned["alfa"] != 2 {
		t.Errorf("alfa should pair with both others: %v", unowned)
	}
}

func TestQueryDistinctRows(t *testing.T) {
	// Two parallel edges with identical properties produce one row when the
	// edge variable is anonymous (set semantics over the named variables).
	g := pg.New()
	a := g.AddNode([]string{"N"}, nil).ID
	b := g.AddNode([]string{"N"}, nil).ID
	g.MustAddEdge(a, b, "R", nil)
	g.MustAddEdge(a, b, "R", nil)
	rows, err := Query(g, `(x: N) [: R] (y: N)`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("rows = %v, want 1 (set semantics)", rows)
	}
	// Naming the edge variable distinguishes the two.
	rows2, err := Query(g, `(x: N) [e: R] (y: N)`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 2 {
		t.Errorf("rows = %v, want 2 (edge identity)", rows2)
	}
}

func TestQueryErrors(t *testing.T) {
	g := queryGraph(t)
	if _, err := Query(g, `(x: Business`, vadalog.Options{}); err == nil {
		t.Error("syntax error must fail")
	}
	if _, err := Query(g, `(: Business)`, vadalog.Options{}); err == nil {
		t.Error("pattern without variables must fail")
	}
	if _, err := Query(g, `(x: Business) -> (x: Out).`, vadalog.Options{}); err == nil {
		t.Error("full rules are not patterns")
	}
}

func TestQueryMissingPropsOmitted(t *testing.T) {
	g := pg.New()
	g.AddNode([]string{"P"}, pg.Props{"a": value.IntV(1)})
	g.AddNode([]string{"P"}, pg.Props{"a": value.IntV(2), "b": value.Str("x")})
	rows, err := Query(g, `(p: P; a: av)`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if _, ok := r["av"]; !ok {
			t.Errorf("a binding missing: %v", r)
		}
	}
}

// TestExplainThroughMetaLog: provenance flows through the MetaLog pipeline —
// a derived CONTROLS fact explains down to the OWNS ground data.
func TestExplainThroughMetaLog(t *testing.T) {
	g := queryGraph(t)
	prog := MustParse(`
		(x: Business) -> (x) [c: CONTROLS] (x).
		(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
			v = sum(w, <z>), v > 0.5
			-> (x) [c: CONTROLS] (y).
	`)
	res, err := Reason(context.Background(), prog, g, vadalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find a derived CONTROLS fact with distinct endpoints and explain it.
	var derived vadalog.Fact
	for _, f := range res.DB.SortedFacts("CONTROLS") {
		if !value.Equal(f[1], f[2]) {
			derived = f
			break
		}
	}
	if derived == nil {
		t.Fatal("no non-self control derived")
	}
	proof, err := res.Run.Explain("CONTROLS", derived, 0)
	if err != nil {
		t.Fatal(err)
	}
	text := proof.String()
	if !strings.Contains(text, "OWNS(") || !strings.Contains(text, "[ground]") {
		t.Errorf("proof should reach the OWNS ground data:\n%s", text)
	}
}

// TestQueryAbsentProperty pins the pre-serving-layer behavior of the
// one-shot query path: a pattern may mention a property no node carries —
// translation extends the catalog, extraction emits the null column, and
// the variable simply binds to Missing (dropped from the row) instead of
// the evaluation failing on an arity mismatch.
func TestQueryAbsentProperty(t *testing.T) {
	g := queryGraph(t)
	rows, err := Query(g, `(x: Business; nope: n) [: OWNS] (y: Business)`, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if _, bound := r["n"]; bound {
			t.Fatalf("absent property bound to %v", r["n"])
		}
		if _, ok := r.OID("x"); !ok {
			t.Fatalf("x unbound in %v", r)
		}
	}
}

// TestQueryDBStaleDatabase: the shared-database path cannot invent columns
// after extraction, so a pattern naming an absent property fails with the
// typed sentinel the serving layer keys its QueryView fallback on — decided
// at run time, from the database's arities. A pattern naming an absent label
// needs no column: its relation is empty and the shared database serves it.
func TestQueryDBStaleDatabase(t *testing.T) {
	g := queryGraph(t)
	cat := FromGraph(g)
	db, err := ExtractFacts(g, cat)
	if err != nil {
		t.Fatal(err)
	}
	for pattern, stale := range map[string]bool{
		`(x: Business; nope: n) [: OWNS] (y: Business)`: true,  // absent node prop
		`(x: Business) [: OWNS; nope: n] (y: Business)`: true,  // absent edge prop
		`(x: NoSuchLabel) [: OWNS] (y: Business)`:       false, // absent node label
		`(x: Business) [: NO_SUCH_EDGE] (y: Business)`:  false, // absent edge label
	} {
		prep, err := PrepareQuery(cat.Clone(), pattern, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := prep.QueryDB(context.Background(), db, vadalog.Options{})
		if stale && !errors.Is(err, ErrStaleDatabase) {
			t.Errorf("pattern %q: err = %v, want ErrStaleDatabase", pattern, err)
		}
		if !stale && (err != nil || len(rows) != 0) {
			t.Errorf("pattern %q: rows = %v, err = %v, want no matches", pattern, rows, err)
		}
	}
	// The known-layout pattern still evaluates against the same database.
	prep, err := PrepareQuery(cat.Clone(), `(x: Business; businessName: n) [: OWNS] (y: Business)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := prep.QueryDB(context.Background(), db, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}
