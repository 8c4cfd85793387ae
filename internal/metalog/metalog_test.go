package metalog

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

func TestParseControlRule(t *testing.T) {
	// Example 4.1 of the paper, in the textual syntax.
	src := `
		(x: Business) -> (x) [c: CONTROLS] (x).
		(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
			v = sum(w, <z>), v > 0.5
			-> (x) [c: CONTROLS] (y).
	`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("expected 2 rules, got %d", len(prog.Rules))
	}
	r := prog.Rules[1]
	if len(r.Body) != 3 {
		t.Fatalf("rule 2 body: expected 3 conjuncts, got %d: %v", len(r.Body), r)
	}
	if r.Body[0].Kind != BodyChain {
		t.Errorf("first conjunct should be a chain")
	}
	ch := r.Body[0].Chain
	if len(ch.Nodes) != 3 || len(ch.Paths) != 2 {
		t.Fatalf("chain shape: %d nodes, %d paths", len(ch.Nodes), len(ch.Paths))
	}
	if ch.Nodes[0].Label != "Business" || ch.Nodes[0].ID.Var != "x" {
		t.Errorf("first node atom = %v", ch.Nodes[0])
	}
	step, ok := ch.Paths[1].(Step)
	if !ok {
		t.Fatalf("second path should be a single step")
	}
	if step.Edge.Label != "OWNS" || len(step.Edge.Props) != 1 || step.Edge.Props[0].Name != "percentage" {
		t.Errorf("OWNS edge atom = %v", step.Edge)
	}
}

func TestParseDescFrom(t *testing.T) {
	// Example 4.3 of the paper.
	src := `(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])* (y: SM_Node) -> (x) [w: DESCFROM] (y).`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ch := prog.Rules[0].Body[0].Chain
	if len(ch.Paths) != 1 {
		t.Fatalf("expected one path, got %d", len(ch.Paths))
	}
	rep, ok := ch.Paths[0].(Repeat)
	if !ok || rep.Plus {
		t.Fatalf("path should be a zero-or-more repeat, got %v", ch.Paths[0])
	}
	cc, ok := rep.Inner.(Concat)
	if !ok || len(cc.Parts) != 2 {
		t.Fatalf("repeat inner should be a 2-concat, got %v", rep.Inner)
	}
	first, ok := cc.Parts[0].(Step)
	if !ok || !first.Edge.Inverse || first.Edge.Label != "SM_CHILD" {
		t.Errorf("first concat part = %v", cc.Parts[0])
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		`(x: Business) -> (x) [c: CONTROLS] (x).`,
		`(x: A) ([: R]- . [: S])* (y: B) -> (x) [w: D] (y).`,
		`(x: A) ([: R] | [: S]) (y: B) -> (x) [w: D] (y).`,
		`(x: A; name: n), n != "bad" -> (#sk(x): C; name: n).`,
		`(x: A), not (x) [: R] (x) -> (x: Loop2).`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := p1.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if p2.String() != printed {
			t.Errorf("round trip mismatch:\n%s\nvs\n%s", printed, p2.String())
		}
	}
}

func buildShareGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	biz := func(name string) pg.OID {
		n := g.AddNode([]string{"Business"}, pg.Props{"name": value.Str(name)})
		return n.ID
	}
	a, b, c, d := biz("a"), biz("b"), biz("c"), biz("d")
	own := func(x, y pg.OID, w float64) {
		g.MustAddEdge(x, y, "OWNS", pg.Props{"percentage": value.FloatV(w)})
	}
	own(a, b, 0.6)
	own(a, c, 0.3)
	own(b, c, 0.3)
	own(c, d, 0.4)
	return g
}

// TestExample41ControlMetaLog runs the paper's Example 4.1 end to end:
// MetaLog source -> MTV -> Vadalog engine -> materialization into the graph.
func TestExample41ControlMetaLog(t *testing.T) {
	prog := MustParse(`
		(x: Business) -> (x) [c: CONTROLS] (x).
		(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
			v = sum(w, <z>), v > 0.5
			-> (x) [c: CONTROLS] (y).
	`)
	g := buildShareGraph(t)
	res, err := Reason(context.Background(), prog, g, vadalog.Options{})
	if err != nil {
		t.Fatalf("reason: %v", err)
	}
	names := map[pg.OID]string{}
	for _, n := range g.NodesByLabel("Business") {
		names[n.ID] = n.Props["name"].S
	}
	got := map[string]bool{}
	for _, e := range g.EdgesByLabel("CONTROLS") {
		got[names[e.From]+"->"+names[e.To]] = true
	}
	for _, want := range []string{"a->a", "b->b", "c->c", "d->d", "a->b", "a->c"} {
		if !got[want] {
			t.Errorf("missing control edge %s (got %v)", want, got)
		}
	}
	if len(got) != 6 {
		t.Errorf("expected 6 control edges, got %d: %v", len(got), got)
	}
	if res.Materialize.EdgesCreated != 6 {
		t.Errorf("EdgesCreated = %d, want 6", res.Materialize.EdgesCreated)
	}
	if res.ReasonDuration <= 0 || res.LoadDuration <= 0 {
		t.Errorf("phase durations should be positive")
	}
}

// TestExample44Translation checks the structure of the Vadalog program MTV
// produces for the DESCFROM rule of Example 4.3, mirroring Example 4.4: the
// inversion, concatenation and Kleene operators become β rules, and @input
// annotations describe the graph extraction.
func TestExample44Translation(t *testing.T) {
	prog := MustParse(`(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])+ (y: SM_Node) -> (x) [w: DESCFROM] (y).`)
	cat := NewCatalog()
	tr, err := Translate(prog, cat)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if len(tr.HelperPreds) != 1 || !strings.HasPrefix(tr.HelperPreds[0], "mtv_closure_") {
		t.Fatalf("expected one closure helper, got %v", tr.HelperPreds)
	}
	beta := tr.HelperPreds[0]
	// Expect: 1 main rule + 2 β rules (base and step), as in Example 4.4.
	if len(tr.Program.Rules) != 3 {
		t.Fatalf("expected 3 Vadalog rules, got %d:\n%s", len(tr.Program.Rules), tr.Program)
	}
	var betaRules int
	for _, r := range tr.Program.Rules {
		for _, h := range r.Head {
			if h.Pred == beta {
				betaRules++
			}
		}
	}
	if betaRules != 2 {
		t.Errorf("expected 2 β rules, got %d", betaRules)
	}
	// The base β rule must traverse SM_CHILD inverted: the closure's source
	// endpoint appears in the child (to) position of SM_CHILD.
	var sawInput bool
	for _, a := range tr.Program.Annotations {
		if a.Name == "input" && a.Args[0] == "SM_CHILD" {
			sawInput = true
		}
	}
	if !sawInput {
		t.Errorf("missing @input annotation for SM_CHILD:\n%s", tr.Program)
	}
	if len(tr.Program.Outputs()) != 1 || tr.Program.Outputs()[0] != "DESCFROM" {
		t.Errorf("outputs = %v", tr.Program.Outputs())
	}
}

// TestExample43DescFrom runs the DESCFROM pattern on a small generalization
// dictionary: Person <- LegalPerson <- Business.
func TestExample43DescFrom(t *testing.T) {
	g := pg.New()
	node := func(name string) pg.OID {
		return g.AddNode([]string{"SM_Node"}, pg.Props{"name": value.Str(name)}).ID
	}
	person, legal, business := node("Person"), node("LegalPerson"), node("Business")
	gen1 := g.AddNode([]string{"SM_Generalization"}, nil).ID
	gen2 := g.AddNode([]string{"SM_Generalization"}, nil).ID
	g.MustAddEdge(gen1, person, "SM_PARENT", nil)
	g.MustAddEdge(gen1, legal, "SM_CHILD", nil)
	g.MustAddEdge(gen2, legal, "SM_PARENT", nil)
	g.MustAddEdge(gen2, business, "SM_CHILD", nil)

	prog := MustParse(`(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])+ (y: SM_Node) -> (x) [w: DESCFROM] (y).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	names := map[pg.OID]string{}
	for _, n := range g.NodesByLabel("SM_Node") {
		names[n.ID] = n.Props["name"].S
	}
	got := map[string]bool{}
	for _, e := range g.EdgesByLabel("DESCFROM") {
		got[names[e.From]+"->"+names[e.To]] = true
	}
	want := []string{"LegalPerson->Person", "Business->LegalPerson", "Business->Person"}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing DESCFROM %s; got %v", w, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("DESCFROM edges = %v", got)
	}
}

// TestFlushKeepsKindChanges: an update whose value equals the stored one
// numerically but not in kind (Int 2 to Float 2.0) is a change, and the flush
// writes it.
func TestFlushKeepsKindChanges(t *testing.T) {
	g := pg.New()
	n := g.AddNode([]string{"N"}, pg.Props{"v": value.IntV(2), "w": value.FloatV(2)}).ID
	res, err := Reason(context.Background(), MustParse(`(x: N; w: w) -> (x: N; v: w).`), g, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Node(n).Props["v"]; v.K != value.Float || v.F != 2 || res.Materialize.PropsSet != 1 {
		t.Fatalf("v = %s %s after the flush, %d props set; want float 2 and 1", v.K, v, res.Materialize.PropsSet)
	}
}

func TestZeroOrMoreIncludesSelf(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"N"}, nil).ID
	b := g.AddNode([]string{"N"}, nil).ID
	g.MustAddEdge(a, b, "R", nil)
	prog := MustParse(`(x: N) ([: R])* (y: N) -> (x) [e: REACH] (y).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	got := map[string]bool{}
	for _, e := range g.EdgesByLabel("REACH") {
		got[edgeKey(e)] = true
	}
	// a*->a, b*->b (zero steps) and a->b (one step).
	if len(got) != 3 {
		t.Errorf("expected 3 REACH edges (2 reflexive + 1), got %d: %v", len(got), got)
	}
}

func edgeKey(e *pg.Edge) string {
	return e.Label + ":" + string(rune('0'+int(e.From))) + "->" + string(rune('0'+int(e.To)))
}

func TestAlternation(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"N"}, nil).ID
	b := g.AddNode([]string{"N"}, nil).ID
	c := g.AddNode([]string{"N"}, nil).ID
	g.MustAddEdge(a, b, "R", nil)
	g.MustAddEdge(a, c, "S", nil)
	prog := MustParse(`(x: N) ([: R] | [: S]) (y: N) -> (x) [e: EITHER] (y).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	if n := len(g.EdgesByLabel("EITHER")); n != 2 {
		t.Errorf("expected 2 EITHER edges, got %d", n)
	}
}

func TestInversePattern(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"N"}, nil).ID
	b := g.AddNode([]string{"N"}, nil).ID
	g.MustAddEdge(a, b, "R", nil)
	prog := MustParse(`(x: N) [: R]- (y: N) -> (x) [e: INV] (y).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	edges := g.EdgesByLabel("INV")
	if len(edges) != 1 || edges[0].From != b || edges[0].To != a {
		t.Errorf("INV edges = %+v (want one b->a)", edges)
	}
}

func TestRepeatInRecursiveProgramRejected(t *testing.T) {
	// CONTROLS depends on itself and the rule uses a repetition: the
	// decidability condition of Section 4 forbids this combination.
	prog := MustParse(`
		(x: B) ([: CONTROLS])+ (z: B) [: OWNS] (y: B) -> (x) [c: CONTROLS] (y).
	`)
	if _, err := Translate(prog, NewCatalog()); err == nil {
		t.Fatal("recursive program with repetition must be rejected")
	}
}

func TestGroupVariableBindingRejected(t *testing.T) {
	prog := MustParse(`(x: N) ([e: R])+ (y: N) -> (x) [w: D] (y).`)
	if _, err := Translate(prog, NewCatalog()); err == nil {
		t.Fatal("variable binding inside a repeated group must be rejected")
	}
	prog2 := MustParse(`(x: N) ([: R; weight: w])+ (y: N) -> (x) [w2: D] (y).`)
	if _, err := Translate(prog2, NewCatalog()); err == nil {
		t.Fatal("property variable inside a repeated group must be rejected")
	}
}

func TestLinkerSkolemInHead(t *testing.T) {
	g := pg.New()
	g.AddNode([]string{"A"}, pg.Props{"k": value.Str("v1")})
	g.AddNode([]string{"A"}, pg.Props{"k": value.Str("v2")})
	prog := MustParse(`(x: A; k: n) -> (#skC(n): C; name: n).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	cs := g.NodesByLabel("C")
	if len(cs) != 2 {
		t.Fatalf("expected 2 C nodes, got %d", len(cs))
	}
	if cs[0].Props["name"].S == cs[1].Props["name"].S {
		t.Errorf("skolem nodes should carry distinct names")
	}
}

func TestLinkerSkolemDeduplicates(t *testing.T) {
	// Two A nodes with the same key must map to ONE C node: that is the
	// "controlled OID generation/retrieval" role of linker Skolem functors.
	g := pg.New()
	g.AddNode([]string{"A"}, pg.Props{"k": value.Str("same")})
	g.AddNode([]string{"A"}, pg.Props{"k": value.Str("same")})
	prog := MustParse(`(x: A; k: n) -> (#skC(n): C; name: n).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	if n := len(g.NodesByLabel("C")); n != 1 {
		t.Errorf("expected 1 C node (skolem dedup), got %d", n)
	}
}

func TestIntensionalNodeProperty(t *testing.T) {
	// numberOfStakeholders from Section 3.3: an intensional property on
	// Business nodes.
	g := pg.New()
	p1 := g.AddNode([]string{"Person"}, nil).ID
	p2 := g.AddNode([]string{"Person"}, nil).ID
	biz := g.AddNode([]string{"Business"}, nil).ID
	s1 := g.AddNode([]string{"Share"}, nil).ID
	s2 := g.AddNode([]string{"Share"}, nil).ID
	g.MustAddEdge(p1, s1, "HOLDS", nil)
	g.MustAddEdge(p2, s2, "HOLDS", nil)
	g.MustAddEdge(s1, biz, "BELONGS_TO", nil)
	g.MustAddEdge(s2, biz, "BELONGS_TO", nil)

	prog := MustParse(`
		(p: Person) [: HOLDS] (s: Share) [: BELONGS_TO] (y: Business), c = count()
			-> (y: Business; numberOfStakeholders: c).
	`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	n := g.Node(biz)
	if got, ok := n.Props["numberOfStakeholders"]; !ok || got.I != 2 {
		t.Errorf("numberOfStakeholders = %v", got)
	}
}

func TestNegatedEdge(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"N"}, nil).ID
	b := g.AddNode([]string{"N"}, nil).ID
	g.MustAddEdge(a, b, "R", nil)
	prog := MustParse(`(x: N), (y: N), not (x) [: R] (y), x != y -> (x) [e: NOR] (y).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("reason: %v", err)
	}
	edges := g.EdgesByLabel("NOR")
	if len(edges) != 1 || edges[0].From != b || edges[0].To != a {
		t.Errorf("NOR edges = %+v", edges)
	}
}

func TestExtractMaterializeRoundTrip(t *testing.T) {
	g := buildShareGraph(t)
	cat := FromGraph(g)
	db, err := ExtractFacts(g, cat)
	if err != nil {
		t.Fatal(err)
	}
	if db.Count("Business") != 4 {
		t.Errorf("Business facts = %d", db.Count("Business"))
	}
	if db.Count("OWNS") != 4 {
		t.Errorf("OWNS facts = %d", db.Count("OWNS"))
	}
	// Edge facts carry (oid, from, to, props...) with catalog layout.
	f := db.Facts("OWNS")[0]
	if len(f) != 4 {
		t.Errorf("OWNS arity = %d, want 4 (oid, from, to, percentage)", len(f))
	}
}

func TestMaterializeIdempotent(t *testing.T) {
	prog := MustParse(`
		(x: Business) -> (x) [c: CONTROLS] (x).
	`)
	g := buildShareGraph(t)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	before := g.NumEdges()
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != before {
		t.Errorf("re-running materialization must not duplicate edges: %d -> %d", before, g.NumEdges())
	}
}

func TestMissingPropertyNeverMatches(t *testing.T) {
	g := pg.New()
	g.AddNode([]string{"P"}, pg.Props{"name": value.Str("x")}) // no "age"
	g.AddNode([]string{"P"}, pg.Props{"name": value.Str("y"), "age": value.IntV(40)})
	prog := MustParse(`(p: P; age: a), a > 0 -> (p: Old).`)
	if _, err := Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := len(g.NodesByLabel("Old")); n != 1 {
		t.Errorf("expected 1 Old node, got %d", n)
	}
}

func TestTranslationIsPiecewiseLinear(t *testing.T) {
	// Per Section 4, a non-recursive MetaLog program with transitive closure
	// reduces to Piecewise Linear Datalog±.
	prog := MustParse(`(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])+ (y: SM_Node) -> (x) [w: DESCFROM] (y).`)
	tr, err := Translate(prog, NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	an, err := vadalog.Analyze(tr.Program)
	if err != nil {
		t.Fatal(err)
	}
	if !an.PiecewiseLinear {
		t.Errorf("translated closure program should be piecewise linear")
	}
	if !an.Warded {
		t.Errorf("translated program should be warded: %v", an.Violations)
	}
}
