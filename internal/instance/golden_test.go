package instance

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// The rendered dictionary — the schema graph plus every attached instance's
// I_SM_* constructs, as Figure 9 encodes them — is pinned byte for byte in
// testdata/<fixture>.dict.json. The files were written by the dictionary that
// stored each instance construct as a node or edge of its pg.Graph, so they
// are the wall between that encoding and the rows the instance level keeps
// now: same OIDs, same properties, same edges. They are inputs, not outputs;
// a change that alters them changes Figure 9.
var goldenFixtures = []struct {
	name   string
	run    func(t *testing.T) *Dictionary
	golden string // the testdata file, when it is not named after the fixture
}{
	// The public load path: LoadPG attaches what it loads.
	{name: "figure9-load", run: func(t *testing.T) *Dictionary {
		d := newCompanyDict(t)
		if _, err := d.LoadPG(buildCompanyData(t), 234); err != nil {
			t.Fatal(err)
		}
		return d
	}},
	// The same data from a snapshot whose rows do not hold their keys in
	// name order: the entities' attribute twins are still laid out in it.
	{name: "figure9-load-bulk", golden: "figure9-load", run: func(t *testing.T) *Dictionary {
		d := newCompanyDict(t)
		if _, err := d.LoadPG(bulkCompanyData(t), 234); err != nil {
			t.Fatal(err)
		}
		return d
	}},
	{name: "control-pg", run: func(t *testing.T) *Dictionary {
		d, data, sigma := chaosFixture(t)
		mustMaterialize(t, d, PGSource{Data: data}, sigma, 777)
		return d
	}},
	{name: "relational", run: func(t *testing.T) *Dictionary {
		d := newCompanyDict(t)
		mustMaterialize(t, d, RelationalSource{Inst: companyTables()}, metalog.MustParse(controlSigma), 888)
		return d
	}},
	// Example 6.1: the update that adds an attribute twin to a loaded entity.
	{name: "example61", run: func(t *testing.T) *Dictionary {
		d := newCompanyDict(t)
		g, _ := example61Data()
		mustMaterialize(t, d, PGSource{Data: g}, metalog.MustParse(example61Sigma), 234)
		return d
	}},
	// Skolem-created entities, their attribute twins and the edges to them.
	{name: "family", run: func(t *testing.T) *Dictionary {
		d := newCompanyDict(t)
		mustMaterialize(t, d, PGSource{Data: familyData()}, metalog.MustParse(familySigma), 1)
		return d
	}},
}

func TestRenderedDictionaryMatchesGoldens(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			golden := fx.golden
			if golden == "" {
				golden = fx.name
			}
			want, err := os.ReadFile(filepath.Join("testdata", golden+".dict.json"))
			if err != nil {
				t.Fatal(err)
			}
			if got := dictSerial(t, fx.run(t)); got != string(want) {
				t.Errorf("rendered dictionary differs from testdata/%s.dict.json", golden)
			}
		})
	}
}

// bulkCompanyData is buildCompanyData bulk-loaded into a snapshot, plus one
// edge outside the schema (loadPG skips it) whose label doubles as a
// property key. The loader interns labels before keys, so every business
// row stores shareholdingCapital first, out of name order.
func bulkCompanyData(t *testing.T) *pg.Frozen {
	t.Helper()
	keys := []string{"businessName", "fiscalCode", "legalNature", "shareholdingCapital"}
	nodes := pg.NodeBatch{Labels: []string{"Business"}, Keys: keys}
	owns := pg.EdgeBatch{Label: "OWNS", Keys: []string{"percentage"}}
	g := buildCompanyData(t)
	g.ScanNodes(func(n *pg.NodeRow) bool {
		nodes.OIDs = append(nodes.OIDs, n.ID)
		for _, k := range keys {
			v, _ := n.Props.Get(k)
			nodes.Vals = append(nodes.Vals, v)
		}
		return true
	})
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		v, _ := e.Props.Get("percentage")
		owns.OIDs, owns.From, owns.To = append(owns.OIDs, e.ID), append(owns.From, e.From), append(owns.To, e.To)
		owns.Vals = append(owns.Vals, v)
		return true
	})
	a := nodes.OIDs[0]
	aux := pg.EdgeBatch{Label: "shareholdingCapital", OIDs: []pg.OID{owns.OIDs[len(owns.OIDs)-1] + 1}, From: []pg.OID{a}, To: []pg.OID{a}}
	l := pg.NewBulkLoader(1)
	if err := l.AddNodes(nodes); err != nil {
		t.Fatal(err)
	}
	for _, b := range []pg.EdgeBatch{owns, aux} {
		if err := l.AddEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	f, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.ScanNodes(func(n *pg.NodeRow) bool {
		if n.Props[0].Key != "shareholdingCapital" {
			t.Fatalf("node %d stores %v first; the fixture needs rows out of name order", n.ID, n.Props[0].Key)
		}
		return true
	})
	return f
}

func mustMaterialize(t *testing.T, d *Dictionary, src Source, sigma *metalog.Program, instanceOID int64) *Result {
	t.Helper()
	res, err := Materialize(d, src, sigma, instanceOID, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// companyTables is buildCompanyData as a relational instance: table-per-class
// rows (each business appears in Person, LegalPerson and Business) and ground
// OWNS rows — the extensional sums of HOLDS, which is how a relational
// deployment stores the materialized edges — in the OWNS junction relation.
func companyTables() *RelationalInstance {
	str, flt := value.Str, value.FloatV
	ri := &RelationalInstance{Tables: map[string][]Row{}}
	for _, code := range []string{"IT1", "IT2", "IT3", "IT4"} {
		ri.Tables["Person"] = append(ri.Tables["Person"], Row{"fiscalCode": str(code)})
		ri.Tables["LegalPerson"] = append(ri.Tables["LegalPerson"], Row{
			"fiscalCode": str(code), "businessName": str("biz-" + code), "legalNature": str("spa"),
		})
		ri.Tables["Business"] = append(ri.Tables["Business"], Row{
			"fiscalCode": str(code), "shareholdingCapital": flt(1000),
		})
	}
	own := func(x, y string, w float64) Row {
		return Row{
			"fk_owns_src_fiscalCode": str(x),
			"fk_owns_dst_fiscalCode": str(y),
			"percentage":             flt(w),
		}
	}
	ri.Tables["OWNS"] = []Row{
		own("IT1", "IT2", 0.6),
		own("IT1", "IT3", 0.3),
		own("IT2", "IT3", 0.3),
		own("IT3", "IT4", 0.4),
	}
	return ri
}

// example61Sigma counts a business's stakeholders into its intensional
// numberOfStakeholders property (Example 6.1).
const example61Sigma = `
	(p: Person) [: HOLDS] (s: Share) [: BELONGS_TO] (y: Business), c = count()
		-> (y: Business; numberOfStakeholders: c).
`

// example61Data is one person holding the single share of one business; it
// returns the business's OID too.
func example61Data() (*pg.Graph, pg.OID) {
	g := pg.New()
	person := g.AddNode([]string{"PhysicalPerson"}, pg.Props{
		"fiscalCode": value.Str("P1"), "name": value.Str("Ann"), "gender": value.Str("female"),
	}).ID
	share := g.AddNode([]string{"Share"}, pg.Props{
		"shareCode": value.Str("S1"), "percentage": value.FloatV(1.0),
	}).ID
	biz := g.AddNode([]string{"Business"}, pg.Props{
		"fiscalCode": value.Str("B1"), "shareholdingCapital": value.FloatV(10),
	}).ID
	g.MustAddEdge(person, share, "HOLDS", pg.Props{"right": value.Str("ownership"), "percentage": value.FloatV(1.0)})
	g.MustAddEdge(share, biz, "BELONGS_TO", nil)
	return g, biz
}

// familySigma derives one Family per distinct name, through the skFam Skolem
// functor, and links each person to it.
const familySigma = `
	(p: PhysicalPerson; name: n), f = concat(n)
		-> (#skFam(f): Family; familyName: f), (p) [e: BELONGS_TO_FAMILY] (#skFam(f): Family).
`

// familyData is three people with distinct names.
func familyData() *pg.Graph {
	g := pg.New()
	for _, p := range [][2]string{{"P1", "Rossi Mario"}, {"P2", "Rossi Luigi"}, {"P3", "Bianchi Anna"}} {
		g.AddNode([]string{"PhysicalPerson"}, pg.Props{
			"fiscalCode": value.Str(p[0]), "name": value.Str(p[1]), "gender": value.Str("other"),
		})
	}
	return g
}
