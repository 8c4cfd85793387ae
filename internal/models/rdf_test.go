package models

import (
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/value"
)

func TestEmitNTriples(t *testing.T) {
	g := pg.New()
	p := g.AddNode([]string{"Person"}, pg.Props{"name": value.Str("Ann"), "age": value.IntV(40)}).ID
	c := g.AddNode([]string{"Business", "LegalPerson"}, pg.Props{"cap": value.FloatV(1.5)}).ID
	g.MustAddEdge(p, c, "OWNS", pg.Props{"pct": value.FloatV(0.6)})
	g.MustAddEdge(c, p, "KNOWS", nil)

	out := EmitNTriples(g, "urn:kg")
	for _, want := range []string{
		`<urn:kg/node/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:kg/class/Person> .`,
		`<urn:kg/node/1> <urn:kg/prop/age> "40"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<urn:kg/node/1> <urn:kg/prop/name> "Ann" .`,
		`<urn:kg/node/2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:kg/class/Business> .`,
		`<urn:kg/node/1> <urn:kg/rel/OWNS> <urn:kg/node/2> .`,
		// The OWNS edge has a property, so it is reified.
		`<urn:kg/edge/3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement> .`,
		`<urn:kg/edge/3> <urn:kg/prop/pct> "0.6"^^<http://www.w3.org/2001/XMLSchema#double> .`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("N-Triples missing:\n%s\nin:\n%s", want, out)
		}
	}
	// The property-less KNOWS edge must not be reified.
	if strings.Contains(out, "edge/4") {
		t.Errorf("property-less edge should not be reified:\n%s", out)
	}
	// Every line is a syntactically complete triple.
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasSuffix(l, " .") {
			t.Errorf("bad triple line: %q", l)
		}
	}
}

func TestRenderViewDOTs(t *testing.T) {
	res := translateCompanyKG(t, "pg", "multi-label")
	pgView, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	dot := RenderPGViewDOT(pgView)
	for _, want := range []string{
		"digraph", "shape=record",
		`"Business:LegalPerson:Person"`,
		"style=dashed", // intensional constructs
		"fiscalCode: string *",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("PG DOT missing %q", want)
		}
	}

	res2 := translateCompanyKG(t, "relational", "")
	relView, err := ReadRelationalSchema(res2.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	dot2 := RenderRelationalViewDOT(relView)
	for _, want := range []string{
		`"HOLDS"`, "FK_HOLDS_SRC", `"Business" -> "LegalPerson"`,
	} {
		if !strings.Contains(dot2, want) {
			t.Errorf("relational DOT missing %q", want)
		}
	}
}

// TestModelConstructsSpecializeSuperModel is a cross-package consistency
// check: every construct of every registered model specializes a construct
// that actually exists in the Figure 3 super-model dictionary.
func TestModelConstructsSpecializeSuperModel(t *testing.T) {
	known := map[string]bool{}
	for _, sc := range supermodel.SuperModelConstructs() {
		known[sc.Name] = true
	}
	for _, m := range []Model{CSVModel(), PGModel(), RDFSModel(), RelationalModel()} {
		for _, c := range m.Constructs {
			if !known[c.Specializes] {
				t.Errorf("model %s: construct %s specializes unknown super-construct %q",
					m.Name, c.Name, c.Specializes)
			}
		}
	}
}
