package instance

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// controlSigma is the intensional component of Example 4.1, written against
// the Company KG super-schema constructs: companies control themselves, and
// control propagates through jointly-held majorities of OWNS edges.
const controlSigma = `
	(x: Business) -> (x) [c: CONTROLS] (x).
	(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
		v = sum(w, <z>), v > 0.5
		-> (x) [c: CONTROLS] (y).
`

// buildCompanyData builds a small Company-KG data instance: four businesses
// with the ownership pattern of the engine tests (a controls b directly and
// c jointly with b).
func buildCompanyData(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	biz := func(code, name string) pg.OID {
		return g.AddNode([]string{"Business"}, pg.Props{
			"fiscalCode":          value.Str(code),
			"businessName":        value.Str(name),
			"legalNature":         value.Str("spa"),
			"shareholdingCapital": value.FloatV(1000),
		}).ID
	}
	a, b, c, d := biz("IT1", "a"), biz("IT2", "b"), biz("IT3", "c"), biz("IT4", "d")
	own := func(x, y pg.OID, w float64) {
		g.MustAddEdge(x, y, "OWNS", pg.Props{"percentage": value.FloatV(w)})
	}
	own(a, b, 0.6)
	own(a, c, 0.3)
	own(b, c, 0.3)
	own(c, d, 0.4)
	return g
}

func controlPairs(t *testing.T, g *pg.Graph) map[string]bool {
	t.Helper()
	names := map[pg.OID]string{}
	for _, n := range g.NodesByLabel("Business") {
		names[n.ID] = n.Props["businessName"].S
	}
	out := map[string]bool{}
	for _, e := range g.EdgesByLabel("CONTROLS") {
		out[names[e.From]+"->"+names[e.To]] = true
	}
	return out
}

// TestFigure9InstanceConstructs checks the instance-level dictionary
// encoding of Figure 9: instance twins with SM_REFERENCES links, and value
// holders on I_SM_Attribute.
func TestFigure9InstanceConstructs(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	data := buildCompanyData(t)
	loaded, err := d.LoadPG(data, 234)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Entities) != 4 {
		t.Fatalf("expected 4 entities, got %d", len(loaded.Entities))
	}
	if len(loaded.Edges) != 4 {
		t.Fatalf("expected 4 instance edges, got %d", len(loaded.Edges))
	}
	g, err := d.Constructs()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.NodesByLabel(LINode)); n != 4 {
		t.Errorf("I_SM_Node count = %d", n)
	}
	if n := len(g.NodesByLabel(LIEdge)); n != 4 {
		t.Errorf("I_SM_Edge count = %d", n)
	}
	// Every instance construct references a schema construct.
	for _, in := range g.NodesByLabel(LINode) {
		found := false
		for _, e := range g.Out(in.ID) {
			if e.Label == LRefs && g.Node(e.To).HasLabel(supermodel.LNode) {
				found = true
			}
		}
		if !found {
			t.Errorf("I_SM_Node %d has no SM_REFERENCES to an SM_Node", in.ID)
		}
	}
	// Attribute twins hold values and reference SM_Attributes (Example 6.1).
	attrs := g.NodesByLabel(LIAttr)
	if len(attrs) != 4*4+4 { // 4 node attrs per business + 1 edge attr per OWNS
		t.Errorf("I_SM_Attribute count = %d, want 20", len(attrs))
	}
	for _, ia := range attrs {
		if _, ok := ia.Props["value"]; !ok {
			t.Errorf("I_SM_Attribute %d has no value", ia.ID)
		}
		if io := ia.Props["instanceOID"]; io.I != 234 {
			t.Errorf("I_SM_Attribute %d has wrong instanceOID %v", ia.ID, io)
		}
	}
	// The rendering is built from the rows: the schema graph holds none of it.
	if n := len(d.Graph.NodesByLabel(LINode)); n != 0 {
		t.Errorf("the dictionary graph holds %d I_SM_Nodes", n)
	}
}

// TestExample62InputView checks the input view construction: Business facts
// aggregate the attribute twins into catalog-ordered tuples.
func TestExample62InputView(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	data := buildCompanyData(t)
	loaded, err := d.LoadPG(data, 123)
	if err != nil {
		t.Fatal(err)
	}
	cat := CatalogFromSchema(d.Schema)
	db, err := loaded.InputViews(cat)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Count("Business"); n != 4 {
		t.Errorf("Business view facts = %d, want 4", n)
	}
	// Generalization-aware upcast: businesses also appear as LegalPerson
	// and Person (Section 3.3's graph homogeneity).
	if n := db.Count("LegalPerson"); n != 4 {
		t.Errorf("LegalPerson view facts = %d, want 4", n)
	}
	if n := db.Count("Person"); n != 4 {
		t.Errorf("Person view facts = %d, want 4", n)
	}
	if n := db.Count("OWNS"); n != 4 {
		t.Errorf("OWNS view facts = %d, want 4", n)
	}
	// The Business tuple layout follows the catalog: oid + effective attrs.
	f := db.Facts("Business")[0]
	if len(f) != 1+len(cat.NodeProps["Business"]) {
		t.Errorf("Business fact arity = %d", len(f))
	}
}

// TestAlgorithm2PGSource runs the full materialization pipeline over a PG
// data instance and applies the result back to the graph.
func TestAlgorithm2PGSource(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := metalog.Parse(controlSigma)
	if err != nil {
		t.Fatal(err)
	}
	data := buildCompanyData(t)
	res, err := Materialize(d, PGSource{Data: data}, sigma, 777, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Derived.NewEdges) != 6 {
		t.Errorf("derived CONTROLS edges = %d, want 6", len(res.Derived.NewEdges))
	}
	if res.LoadDuration <= 0 || res.ReasonDuration <= 0 {
		t.Errorf("phase durations must be positive")
	}
	if _, err := res.ApplyToPG(data); err != nil {
		t.Fatal(err)
	}
	got := controlPairs(t, data)
	for _, want := range []string{"a->a", "b->b", "c->c", "d->d", "a->b", "a->c"} {
		if !got[want] {
			t.Errorf("missing control edge %s; got %v", want, got)
		}
	}
	if len(got) != 6 {
		t.Errorf("control edges = %v", got)
	}
}

// TestAlgorithm2RelationalSource demonstrates model independence: the same
// intensional component Σ materializes over a *relational* data instance,
// and the result exports as a property graph.
func TestAlgorithm2RelationalSource(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := metalog.Parse(controlSigma)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Materialize(d, RelationalSource{Inst: companyTables()}, sigma, 888, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loaded.Entities) != 4 {
		t.Fatalf("entities = %d, want 4 (table-per-class rows re-joined)", len(res.Loaded.Entities))
	}
	if len(res.Derived.NewEdges) != 6 {
		t.Errorf("derived CONTROLS edges = %d, want 6", len(res.Derived.NewEdges))
	}
	out := res.ExportPG()
	codes := map[pg.OID]string{}
	for _, n := range out.NodesByLabel("Business") {
		codes[n.ID] = n.Props["fiscalCode"].S
		if !n.HasLabel("Person") {
			t.Errorf("exported business must carry its ancestor labels")
		}
	}
	got := map[string]bool{}
	for _, e := range out.EdgesByLabel("CONTROLS") {
		got[codes[e.From]+"->"+codes[e.To]] = true
	}
	if !got["IT1->IT2"] || !got["IT1->IT3"] {
		t.Errorf("relational-source control edges = %v", got)
	}
}

// TestExample61InstanceCopy checks the intensional-property path: the
// numberOfStakeholders property materializes onto Business entities through
// the instance constructs.
func TestExample61InstanceCopy(t *testing.T) {
	s := supermodel.CompanyKG()
	d, err := NewDictionary(s)
	if err != nil {
		t.Fatal(err)
	}
	g, biz := example61Data()
	res, err := Materialize(d, PGSource{Data: g}, metalog.MustParse(example61Sigma), 234, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived.UpdatedProps != 1 {
		t.Errorf("UpdatedProps = %d, want 1", res.Derived.UpdatedProps)
	}
	if _, err := res.ApplyToPG(g); err != nil {
		t.Fatal(err)
	}
	if got := g.Node(biz).Props["numberOfStakeholders"]; got.I != 1 {
		t.Errorf("numberOfStakeholders = %v", got)
	}
	// The I_SM_Attribute twin exists in the dictionary too (Example 6.1).
	dict, err := d.Constructs()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ia := range dict.NodesByLabel(LIAttr) {
		for _, e := range dict.Out(ia.ID) {
			if e.Label == LRefs && dict.Node(e.To).Props["name"].S == "numberOfStakeholders" {
				if ia.Props["value"].I == 1 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("numberOfStakeholders attribute twin missing in dictionary")
	}
}

// TestFlushKeepsKindChanges: a derived attribute equal to the stored one
// numerically but not in kind (Float 2.0 over Int 2) is an update, through
// the entity attributes and ApplyToPG alike.
func TestFlushKeepsKindChanges(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	g := pg.New()
	biz := g.AddNode([]string{"Business"}, pg.Props{
		"fiscalCode": value.Str("B1"), "numberOfStakeholders": value.IntV(2), "shareholdingCapital": value.FloatV(2),
	}).ID
	sigma := metalog.MustParse(`(y: Business; shareholdingCapital: c) -> (y: Business; numberOfStakeholders: c).`)
	res, err := Materialize(d, PGSource{Data: g}, sigma, 1, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := res.ApplyToPG(g)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Node(biz).Props["numberOfStakeholders"]; v.K != value.Float || v.F != 2 || res.Derived.UpdatedProps != 1 || stats.PropsSet != 1 {
		t.Fatalf("numberOfStakeholders = %s %s, %d updated, %d set; want float 2, 1 and 1", v.K, v, res.Derived.UpdatedProps, stats.PropsSet)
	}
}

// TestIntensionalNodeCreation: a Σ that derives new Family entities and
// BELONGS_TO_FAMILY edges.
func TestIntensionalNodeCreation(t *testing.T) {
	s := supermodel.CompanyKG()
	d, err := NewDictionary(s)
	if err != nil {
		t.Fatal(err)
	}
	g := familyData()
	res, err := Materialize(d, PGSource{Data: g}, metalog.MustParse(familySigma), 1, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Three distinct names -> three families here (no string splitting in
	// this toy Σ); what matters is entity creation and linking.
	if len(res.Derived.NewEntities) != 3 {
		t.Errorf("new Family entities = %d, want 3", len(res.Derived.NewEntities))
	}
	if len(res.Derived.NewEdges) != 3 {
		t.Errorf("BELONGS_TO_FAMILY edges = %d, want 3", len(res.Derived.NewEdges))
	}
	stats, err := res.ApplyToPG(g)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesCreated != 3 {
		t.Errorf("nodes created in data graph = %d", stats.NodesCreated)
	}
	if n := len(g.NodesByLabel("Family")); n != 3 {
		t.Errorf("Family nodes = %d", n)
	}
}

func TestMostSpecificType(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	typ, err := d.Schema.MostSpecificType([]string{"Person", "LegalPerson", "Business"})
	if err != nil || typ != "Business" {
		t.Errorf("MostSpecificType = %q, %v", typ, err)
	}
	if _, err := d.Schema.MostSpecificType([]string{"Unknown"}); !errors.Is(err, supermodel.ErrNoSchemaLabel) {
		t.Errorf("unknown labels = %v, want ErrNoSchemaLabel", err)
	}
	if _, err := d.Schema.MostSpecificType([]string{"Business", "Place"}); err == nil || errors.Is(err, supermodel.ErrNoSchemaLabel) {
		t.Errorf("ambiguous label set = %v, want the ambiguity error", err)
	}
	// The load refuses the ambiguous node with that same error.
	g := pg.New()
	g.AddNode([]string{"Business", "Place"}, pg.Props{"fiscalCode": value.Str("X")})
	_, wantErr := d.Schema.MostSpecificType([]string{"Business", "Place"})
	if _, err := d.LoadPG(g, 1); err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Errorf("LoadPG of an ambiguous node = %v, want %v", err, wantErr)
	}
}
