package instance

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/metalog"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// TestOneLayoutThreeLoaders feeds the same constructs through the three
// construct→tuple paths — ExtractFacts, ApplyFactsDelta and InputViews — under
// one catalog and asserts they agree tuple for tuple: full and sparse nodes,
// an edge with and without its attribute.
func TestOneLayoutThreeLoaders(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	cat := CatalogFromSchema(d.Schema)
	data := pg.New()
	full := data.AddNode([]string{"Business"}, pg.Props{
		"fiscalCode": value.Str("IT1"), "businessName": value.Str("a"),
		"legalNature": value.Str("spa"), "shareholdingCapital": value.FloatV(1000),
	}).ID
	sparse := data.AddNode([]string{"Business"}, pg.Props{"fiscalCode": value.Str("IT2")}).ID
	data.AddNode([]string{"PhysicalPerson"}, pg.Props{"fiscalCode": value.Str("P1"), "name": value.Str("Rossi")})
	data.MustAddEdge(full, sparse, "OWNS", pg.Props{"percentage": value.FloatV(0.6)})
	data.MustAddEdge(sparse, full, "OWNS", nil)

	extracted, err := metalog.ExtractFacts(data, cat)
	if err != nil {
		t.Fatal(err)
	}
	if f := extracted.Facts("OWNS")[1]; !value.Equal(f[3], metalog.Missing) || metalog.Present(f[3]) {
		t.Fatalf("absent edge attribute must encode as Missing: %v", f)
	}

	// The facts delta of "everything was just added" is a full extraction.
	var diff overlay.Diff
	for _, n := range data.Nodes() {
		diff.AddedNodes = append(diff.AddedNodes, &pg.NodeRow{ID: n.ID, Labels: n.Labels, Props: pg.PropListOf(n.Props)})
	}
	for _, e := range data.Edges() {
		diff.AddedEdges = append(diff.AddedEdges, &pg.EdgeRow{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: pg.PropListOf(e.Props)})
	}
	delta, ok := metalog.ApplyFactsDelta(vadalog.NewDatabase(), cat, diff)
	if !ok {
		t.Fatal("ApplyFactsDelta refused constructs the catalog covers")
	}
	if delta.Dump() != extracted.Dump() {
		t.Fatalf("facts delta diverged from extraction:\n%s\nvs\n%s", delta.Dump(), extracted.Dump())
	}

	// The input views speak instance OIDs; modulo that renaming the tuples
	// are the extracted ones (plus the generalization upcasts).
	loaded, err := d.LoadPG(data, 7)
	if err != nil {
		t.Fatal(err)
	}
	views, err := loaded.InputViews(cat)
	if err != nil {
		t.Fatal(err)
	}
	ioid := map[int64]int64{} // data node OID -> I_SM_Node OID
	for _, ent := range loaded.Entities {
		ioid[int64(ent.Source)] = int64(ent.IOID)
	}
	rename := func(f vadalog.Fact, ids int) vadalog.Fact {
		out := append(vadalog.Fact(nil), f...)
		for i := 0; i < ids; i++ {
			if i == 0 && ids == 3 {
				continue // edge identifiers are the I_SM_Edge's own
			}
			oid, _ := f[i].AsInt()
			out[i] = value.IntV(ioid[oid])
		}
		return out
	}
	for _, label := range []string{"Business", "PhysicalPerson"} {
		var want []vadalog.Fact
		for _, f := range extracted.Facts(label) {
			want = append(want, rename(f, 1))
		}
		if got := views.Facts(label); !reflect.DeepEqual(got, want) {
			t.Errorf("%s input view = %v, want %v", label, got, want)
		}
	}
	for i, f := range extracted.Facts("OWNS") {
		got, want := views.Facts("OWNS")[i], rename(f, 3)
		if !reflect.DeepEqual(got[1:], want[1:]) {
			t.Errorf("OWNS input view fact %d = %v, want %v", i, got, want)
		}
	}
	if n := views.Count("LegalPerson"); n != 2 {
		t.Errorf("LegalPerson upcast facts = %d, want 2", n)
	}
}

// TestDerivedWalkOrderThroughBothSinks runs one saturated database through
// the walker and through both of its sinks — instance.Flush and
// metalog.Materialize — and asserts the visit order (head node labels, then
// update predicates, then head edge labels, each sorted, facts in value
// order) is the order in which either sink creates its constructs.
func TestDerivedWalkOrderThroughBothSinks(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	data := buildCompanyData(t)
	for _, name := range []string{"Verdi Anna", "Rossi Mario", "Bianchi Ugo"} {
		data.AddNode([]string{"PhysicalPerson"}, pg.Props{
			"fiscalCode": value.Str(name[:2]), "name": value.Str(name), "gender": value.Str("other"),
		})
	}
	sigma := metalog.MustParse(`
		(p: PhysicalPerson; name: n) -> (#skFam(n): Family; familyName: n), (p) [e: BELONGS_TO_FAMILY] (#skFam(n): Family).
		(x: Business) [: OWNS] (y: Business), c = count() -> (y: Business; numberOfStakeholders: c).
		(x: Business) [: OWNS] (y: Business) -> (x) [c: CONTROLS] (y).
	`)
	res, err := Materialize(d, PGSource{Data: data}, sigma, 1, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}

	type visit struct {
		kind  metalog.DerivedKind
		label string
	}
	var visits []visit
	var families, edges []string // the constructs each sink must create, in order
	props := 0
	err = metalog.WalkDerived(res.DB, res.Translation, res.Catalog, func(f *metalog.DerivedFact) error {
		visits = append(visits, visit{f.Kind, f.Label})
		switch f.Kind {
		case metalog.HeadEdge:
			edges = append(edges, f.Label)
		case metalog.HeadNode:
			// Each family derives twice: with its name, and bare (all
			// Missing) from the edge chain's endpoint atom.
			if len(f.Props) > 0 {
				families = append(families, f.Props[0].Val.S)
			}
			fallthrough
		default:
			props += len(f.Props)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(visits, func(i, j int) bool {
		a, b := visits[i], visits[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.label < b.label
	}) {
		t.Fatalf("walk is not grouped by kind then label: %v", visits)
	}
	seen := map[metalog.DerivedKind]int{}
	for _, v := range visits {
		seen[v.kind]++
	}
	for _, k := range []metalog.DerivedKind{metalog.HeadNode, metalog.UpdateNode, metalog.HeadEdge} {
		if seen[k] == 0 {
			t.Fatalf("Σ derived no facts of kind %d; the order test is vacuous", k)
		}
	}
	if !reflect.DeepEqual(families, []string{"Bianchi Ugo", "Rossi Mario", "Verdi Anna"}) {
		t.Fatalf("head node facts not in value order: %v", families)
	}
	if !reflect.DeepEqual(edges, []string{"BELONGS_TO_FAMILY", "BELONGS_TO_FAMILY", "BELONGS_TO_FAMILY",
		"CONTROLS", "CONTROLS", "CONTROLS", "CONTROLS"}) {
		t.Fatalf("head edge facts not in label order: %v", edges)
	}

	// Flush sink: entities and edges were created in visit order.
	var gotFamilies, gotEdges []string
	for _, ent := range res.Derived.NewEntities {
		name, _ := ent.Attrs.Get("familyName")
		gotFamilies = append(gotFamilies, name.S)
	}
	for i, e := range res.Derived.NewEdges {
		gotEdges = append(gotEdges, e.Type)
		if i > 0 && e.IOID <= res.Derived.NewEdges[i-1].IOID {
			t.Errorf("Flush created edge %d out of OID order", i)
		}
	}
	if !reflect.DeepEqual(gotFamilies, families) || !reflect.DeepEqual(gotEdges, edges) {
		t.Errorf("Flush created %v / %v, walker visited %v / %v", gotFamilies, gotEdges, families, edges)
	}
	if res.Derived.UpdatedProps != props {
		t.Errorf("Flush updated %d properties, walker handed out %d", res.Derived.UpdatedProps, props)
	}

	// Materialize sink, over a graph holding the entities under their
	// instance OIDs: fresh nodes and edges appear in visit order.
	g := pg.New()
	for _, ent := range res.Loaded.Entities {
		if ent.Type != "Family" {
			if _, err := g.AddNodeWithID(ent.IOID, []string{ent.Type}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := g.NumNodes()
	if _, err := metalog.Materialize(res.DB, res.Translation, res.Catalog, g); err != nil {
		t.Fatal(err)
	}
	gotFamilies, gotEdges = nil, nil
	for _, n := range g.Nodes()[base:] {
		gotFamilies = append(gotFamilies, n.Props["familyName"].S)
	}
	for _, e := range g.Edges() {
		gotEdges = append(gotEdges, e.Label)
	}
	if !reflect.DeepEqual(gotFamilies, families) || !reflect.DeepEqual(gotEdges, edges) {
		t.Errorf("Materialize created %v / %v, walker visited %v / %v", gotFamilies, gotEdges, families, edges)
	}
}
