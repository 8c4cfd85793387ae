package server

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/value"
)

// brokenCompanyKG is a small Company KG instance that breaks the schema in
// every way /validate reports: identifier and unique values repeated within
// one node type and across types, wrong property kinds, enum and range
// modifiers, unknown labels and properties, and relationships with bad
// endpoints or missing properties.
func brokenCompanyKG() *pg.Graph {
	g := pg.New()
	str, flt := value.Str, value.FloatV
	person := func(code, gender string) pg.OID {
		return g.AddNode([]string{"Person", "PhysicalPerson"}, pg.Props{
			"fiscalCode": str(code), "name": str("N " + code), "gender": str(gender),
		}).ID
	}
	business := func(labels []string, code string, props pg.Props) pg.OID {
		p := pg.Props{"fiscalCode": str(code), "businessName": str("biz " + code),
			"legalNature": str("spa"), "shareholdingCapital": flt(100)}
		for k, v := range props {
			p[k] = v
		}
		return g.AddNode(labels, p).ID
	}
	biz := []string{"Business", "LegalPerson", "Person"}
	plc := []string{"Business", "LegalPerson", "Person", "PublicListedCompany"}

	p1 := person("C1", "female")
	p2 := person("C1", "robot")    // repeated code, bad enum
	b1 := business(biz, "C1", nil) // same code as p1, another node type
	b2 := business(biz, "B2", pg.Props{"shareholdingCapital": str("lots")})
	l1 := business(plc, "B2", pg.Props{"stockExchange": str("MTA")}) // same code as b2, another type
	l2 := business(plc, "L2", pg.Props{"stockExchange": str("MTA"), "color": str("red")})
	s1 := g.AddNode([]string{"Share"}, pg.Props{"shareCode": str("S1"), "percentage": flt(0.5)}).ID
	s2 := g.AddNode([]string{"Share"}, pg.Props{"shareCode": str("S1"), "percentage": flt(3)}).ID
	for _, street := range []string{"Via Roma", "Via Roma"} {
		g.AddNode([]string{"Place"}, pg.Props{"street": str(street), "streetNumber": str("1"),
			"city": str("Roma"), "postalCode": str("00100")})
	}
	g.AddNode([]string{"Alien"}, nil)
	g.MustAddEdge(p1, s1, "HOLDS", pg.Props{"right": str("ownership"), "percentage": flt(0.5)})
	g.MustAddEdge(p2, s2, "HOLDS", pg.Props{"right": str("loan")}) // missing percentage, bad enum
	g.MustAddEdge(s1, b1, "BELONGS_TO", nil)
	g.MustAddEdge(s2, l1, "BELONGS_TO", nil)
	g.MustAddEdge(b2, s2, "BELONGS_TO", nil) // wrong direction
	g.MustAddEdge(l2, b2, "OWNS", pg.Props{"percentage": flt(0.7)})
	g.MustAddEdge(p1, l2, "FRIENDS", nil) // unknown relationship
	return g
}

// The /validate response bodies are pinned byte for byte in
// testdata/validate-<instance>-<strategy>.golden, for both PG strategies over
// a generated Company KG (kggen -companies 200 -seed 3 -mode kg: it conforms
// under multi-label, and child-edges reports every multi-labelled node), over
// tinyGraph and over brokenCompanyKG, which violate both. They are inputs,
// not outputs: they were written when /validate translated the schema
// through the native Go twin on every request, so they are the wall that
// says the SSST views the server translates once at construction validate
// alike.
func TestValidateGoldens(t *testing.T) {
	instances := []struct {
		name  string
		graph func() *pg.Graph
	}{
		{"kg", func() *pg.Graph {
			return fingraph.GenerateTopology(fingraph.DefaultConfig(200, 3)).CompanyKG()
		}},
		{"tiny", tinyGraph},
		{"broken", brokenCompanyKG},
	}
	for _, inst := range instances {
		s, err := NewFromGraph(Config{Schema: supermodel.CompanyKG()}, inst.graph())
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range []string{"multi-label", "child-edges"} {
			name := "validate-" + inst.name + "-" + strategy + ".golden"
			t.Run(name, func(t *testing.T) {
				w := postJSON(t, s.Handler(), "/validate", `{"strategy":"`+strategy+`"}`)
				if w.Code != http.StatusOK {
					t.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
				want, err := os.ReadFile(filepath.Join("testdata", name))
				if err != nil {
					t.Fatal(err)
				}
				if got := w.Body.String(); got != string(want) {
					t.Errorf("/validate body differs from testdata/%s", name)
				}
				// The repository's default PG mapping is multi-label: an
				// empty strategy answers with its body, named.
				if strategy == "multi-label" {
					if w := postJSON(t, s.Handler(), "/validate", `{}`); w.Body.String() != string(want) {
						t.Errorf("empty strategy differs from testdata/%s:\n%s", name, w.Body.String())
					}
				}
			})
		}
	}
}
