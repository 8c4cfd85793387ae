package metalog

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

func reasonOn(t *testing.T, src string, g *pg.Graph) *ReasonResult {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Reason(context.Background(), prog, g, vadalog.Options{})
	if err != nil {
		t.Fatalf("reason: %v", err)
	}
	return res
}

func lineGraph(labels ...string) (*pg.Graph, []pg.OID) {
	g := pg.New()
	ids := make([]pg.OID, len(labels))
	for i, l := range labels {
		ids[i] = g.AddNode([]string{"N"}, pg.Props{"tag": value.Str(l)}).ID
	}
	return g, ids
}

func TestGroupInverse(t *testing.T) {
	// ([:R] . [:S])- from x to y means the concatenation traversed backward:
	// there must be a path y -R-> m -S-> x.
	g, ids := lineGraph("a", "m", "b")
	g.MustAddEdge(ids[0], ids[1], "R", nil)
	g.MustAddEdge(ids[1], ids[2], "S", nil)
	reasonOn(t, `(x: N) ([: R] . [: S])- (y: N) -> (x) [e: BACK] (y).`, g)
	edges := g.EdgesByLabel("BACK")
	if len(edges) != 1 || edges[0].From != ids[2] || edges[0].To != ids[0] {
		t.Errorf("BACK edges = %+v, want b->a", edges)
	}
}

func TestAlternationInsideConcat(t *testing.T) {
	// ([:R] | [:S]) . [:T]
	g, ids := lineGraph("a", "b", "c", "d")
	g.MustAddEdge(ids[0], ids[1], "R", nil)
	g.MustAddEdge(ids[2], ids[1], "S", nil)
	g.MustAddEdge(ids[1], ids[3], "T", nil)
	reasonOn(t, `(x: N) (([: R] | [: S]) . [: T]) (y: N) -> (x) [e: OUT] (y).`, g)
	edges := g.EdgesByLabel("OUT")
	// a -R-> b -T-> d and c -S-> b -T-> d.
	if len(edges) != 2 {
		t.Fatalf("OUT edges = %d, want 2", len(edges))
	}
}

func TestAlternationHelperDeduplicated(t *testing.T) {
	// The same alternation used in two rules must share one α predicate.
	prog := MustParse(`
		(x: N) ([: R] | [: S]) (y: N) -> (x) [e: P1] (y).
		(x: N) ([: R] | [: S]) (y: N) -> (x) [e: P2] (y).
	`)
	tr, err := Translate(prog, NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.HelperPreds) != 1 {
		t.Errorf("helpers = %v, want one shared α", tr.HelperPreds)
	}
}

func TestConstantFilterInsideGroup(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"N"}, nil).ID
	b := g.AddNode([]string{"N"}, nil).ID
	c := g.AddNode([]string{"N"}, nil).ID
	g.MustAddEdge(a, b, "R", pg.Props{"kind": value.Str("good")})
	g.MustAddEdge(b, c, "R", pg.Props{"kind": value.Str("bad")})
	reasonOn(t, `(x: N) ([: R; kind: "good"])+ (y: N) -> (x) [e: G] (y).`, g)
	edges := g.EdgesByLabel("G")
	if len(edges) != 1 || edges[0].From != a || edges[0].To != b {
		t.Errorf("G edges = %+v, want only a->b", edges)
	}
}

func TestMultipleBodyChains(t *testing.T) {
	g := pg.New()
	p := g.AddNode([]string{"P"}, nil).ID
	q := g.AddNode([]string{"Q"}, nil).ID
	g.MustAddEdge(p, q, "R", nil)
	g.MustAddEdge(q, p, "S", nil)
	// Two separate chains sharing variables.
	reasonOn(t, `(x: P) [: R] (y: Q), (y) [: S] (x) -> (x) [e: MUTUAL] (y).`, g)
	if len(g.EdgesByLabel("MUTUAL")) != 1 {
		t.Errorf("MUTUAL edges = %d", len(g.EdgesByLabel("MUTUAL")))
	}
}

func TestHeadMultipleChains(t *testing.T) {
	g := pg.New()
	g.AddNode([]string{"A"}, pg.Props{"k": value.Str("v")})
	res := reasonOn(t, `
		(x: A; k: n) -> (#skB(n): B; name: n), (x) [e1: TO_B] (#skB(n): B), (#skB(n): B) [e2: SELF] (#skB(n): B).
	`, g)
	_ = res
	if len(g.NodesByLabel("B")) != 1 {
		t.Errorf("B nodes = %d", len(g.NodesByLabel("B")))
	}
	if len(g.EdgesByLabel("TO_B")) != 1 || len(g.EdgesByLabel("SELF")) != 1 {
		t.Errorf("edges: TO_B=%d SELF=%d", len(g.EdgesByLabel("TO_B")), len(g.EdgesByLabel("SELF")))
	}
}

func TestUserAnnotationsPassThrough(t *testing.T) {
	prog := MustParse(`
		(x: A) -> (x: B).
		@custom("hello", "world").
	`)
	tr, err := Translate(prog, NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range tr.Program.Annotations {
		if a.Name == "custom" && len(a.Args) == 2 && a.Args[1] == "world" {
			found = true
		}
	}
	if !found {
		t.Errorf("user annotation lost: %v", tr.Program.Annotations)
	}
}

func TestTranslateErrors(t *testing.T) {
	// Label used as node and edge.
	if _, err := Translate(MustParse(`(x: A) [: A] (y: B) -> (x) [e: C] (y).`), NewCatalog()); err == nil {
		t.Error("node/edge label clash must fail")
	}
	// Head with only bare references derives nothing.
	if _, err := Translate(MustParse(`(x: A) [: R] (y: B) -> (x).`), NewCatalog()); err == nil {
		t.Error("head without constructive atoms must fail")
	}
	// Unlabeled node atom with properties.
	if _, err := Translate(MustParse(`(x; p: v) -> (x: Out).`), NewCatalog()); err == nil {
		t.Error("properties without a label must fail")
	}
	// Negated chain with labeled endpoints.
	if _, err := Translate(MustParse(`(x: A), (y: B), not (x: A) [: R] (y) -> (x) [e: C] (y).`), NewCatalog()); err == nil {
		t.Error("negated edge with labeled endpoint must fail")
	}
}

func TestNegatedNodeAtom(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"P"}, nil)
	b := g.AddNode([]string{"P", "Banned"}, nil)
	_, _ = a, b
	reasonOn(t, `(x: P), not (x: Banned) -> (x: Clean).`, g)
	clean := g.NodesByLabel("Clean")
	if len(clean) != 1 || clean[0].ID != a.ID {
		t.Errorf("Clean nodes = %v", clean)
	}
}

func TestEdgePropertyInHead(t *testing.T) {
	g := pg.New()
	x := g.AddNode([]string{"A"}, pg.Props{"w": value.FloatV(2.5)}).ID
	y := g.AddNode([]string{"A"}, nil).ID
	g.MustAddEdge(x, y, "R", nil)
	reasonOn(t, `(a: A; w: v) [: R] (b: A), d = v * 2 -> (a) [e: W; weight: d] (b).`, g)
	edges := g.EdgesByLabel("W")
	if len(edges) != 1 || edges[0].Props["weight"].F != 5 {
		t.Errorf("W edges = %+v", edges)
	}
}

func TestCatalogInference(t *testing.T) {
	cat := NewCatalog()
	prog := MustParse(`(x: A; p1: a, p2: b) [: R; q: c] (y: B) -> (x) [e: S; out: c] (y).`)
	if _, err := Translate(prog, cat); err != nil {
		t.Fatal(err)
	}
	if got := cat.NodeProps["A"]; len(got) != 2 || got[0] != "p1" {
		t.Errorf("A props = %v", got)
	}
	if got := cat.EdgeProps["R"]; len(got) != 1 || got[0] != "q" {
		t.Errorf("R props = %v", got)
	}
	if got := cat.EdgeProps["S"]; len(got) != 1 || got[0] != "out" {
		t.Errorf("S props = %v", got)
	}
	if cat.NodeArity("A") != 3 || cat.EdgeArity("R") != 4 {
		t.Errorf("arities: %d, %d", cat.NodeArity("A"), cat.EdgeArity("R"))
	}
}

func TestUpdatePredRoundTrip(t *testing.T) {
	// numberOfX updates must flow through the shadow predicate and the
	// catalog position math must align.
	g := pg.New()
	a := g.AddNode([]string{"T"}, pg.Props{"n": value.IntV(0), "k": value.Str("x")}).ID
	g.AddNode([]string{"U"}, nil)
	reasonOn(t, `(x: T; k: s), (y: U), c = count() -> (x: T; n: c).`, g)
	if got := g.Node(a).Props["n"]; got.I != 1 {
		t.Errorf("n = %v", got)
	}
	if got := g.Node(a).Props["k"]; got.S != "x" {
		t.Errorf("update must not clobber other properties: k = %v", got)
	}
}

func TestInputAnnotationsExampleStyle(t *testing.T) {
	// The generated @input annotations follow the Example 4.4 style.
	prog := MustParse(`(x: SM_Node) [: SM_PARENT]- (g: SM_Generalization) -> (x: Marked).`)
	tr, err := Translate(prog, NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	text := tr.Program.String()
	if !strings.Contains(text, `@input("SM_Node","pg","(n:SM_Node) return n")`) {
		t.Errorf("node @input missing:\n%s", text)
	}
	if !strings.Contains(text, `@input("SM_PARENT","pg","(a)-[e:SM_PARENT]->(b) return (e,a,b)")`) {
		t.Errorf("edge @input missing:\n%s", text)
	}
}

func TestDeepGeneralizationClosurePerformance(t *testing.T) {
	// A 200-level chain through the β closure must stay well under a second
	// (regression guard for the chain-order join fix).
	g := pg.New()
	prev := g.AddNode([]string{"SM_Node"}, nil).ID
	for i := 0; i < 200; i++ {
		next := g.AddNode([]string{"SM_Node"}, nil).ID
		gen := g.AddNode([]string{"SM_Generalization"}, nil).ID
		g.MustAddEdge(gen, prev, "SM_PARENT", nil)
		g.MustAddEdge(gen, next, "SM_CHILD", nil)
		prev = next
	}
	res := reasonOn(t, `(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])+ (y: SM_Node) -> (x) [w: DESCFROM] (y).`, g)
	want := 200 * 201 / 2
	if n := len(g.EdgesByLabel("DESCFROM")); n != want {
		t.Errorf("DESCFROM edges = %d, want %d", n, want)
	}
	if res.ReasonDuration.Seconds() > 2 {
		t.Errorf("closure too slow: %v", res.ReasonDuration)
	}
}
