package models

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/value"
)

// miniView translates a small schema and returns its PG view.
func miniView(t *testing.T) *PGSchemaView {
	t.Helper()
	s := supermodel.NewSchema("mini", 77)
	s.MustAddNode("Company", false,
		supermodel.Attr("vat", supermodel.String).ID(),
		supermodel.Attr("cap", supermodel.Float).Opt(),
	)
	s.MustAddNode("Person", false,
		supermodel.Attr("code", supermodel.String).ID().With(supermodel.UniqueModifier{}),
	)
	s.MustAddEdge("OWNS", false, "Person", "Company", supermodel.ZeroToMany, supermodel.ZeroToMany,
		supermodel.Attr("pct", supermodel.Float),
	)
	v, err := NativeToPG(s, "multi-label")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestValidateInstanceClean(t *testing.T) {
	view := miniView(t)
	g := pg.New()
	p := g.AddNode([]string{"Person"}, pg.Props{"code": value.Str("P1")}).ID
	c := g.AddNode([]string{"Company"}, pg.Props{"vat": value.Str("IT1"), "cap": value.FloatV(10)}).ID
	g.MustAddEdge(p, c, "OWNS", pg.Props{"pct": value.FloatV(0.5)})
	if got := ValidateInstance(g, view); len(got) != 0 {
		t.Errorf("clean instance reported violations: %v", got)
	}
}

func TestValidateInstanceViolations(t *testing.T) {
	view := miniView(t)
	g := pg.New()
	// Missing required vat; wrong type for cap; unknown property; unknown
	// label; duplicate unique code; edge with bad endpoints and missing pct.
	c1 := g.AddNode([]string{"Company"}, pg.Props{"cap": value.Str("not-a-float"), "color": value.Str("red")}).ID
	p1 := g.AddNode([]string{"Person"}, pg.Props{"code": value.Str("X")}).ID
	p2 := g.AddNode([]string{"Person"}, pg.Props{"code": value.Str("X")}).ID
	alien := g.AddNode([]string{"Alien"}, nil).ID
	g.MustAddEdge(c1, p1, "OWNS", nil)    // wrong direction (Company -> Person)
	g.MustAddEdge(p1, c1, "OWNS", nil)    // missing pct
	g.MustAddEdge(p2, c1, "FRIENDS", nil) // unknown relationship
	_ = alien

	got := ValidateInstance(g, view)
	kinds := map[string]int{}
	for _, v := range got {
		kinds[v.Kind]++
	}
	for kind, want := range map[string]int{
		"missing-property":     2, // vat on c1, pct on the p1->c1 edge
		"bad-type":             1,
		"unknown-property":     1,
		"unknown-label":        2, // the label itself and the unmatched label set
		"not-unique":           1,
		"bad-endpoint":         1,
		"unknown-relationship": 1,
	} {
		if kinds[kind] != want {
			t.Errorf("%s violations = %d, want %d\nall: %v", kind, kinds[kind], want, got)
		}
	}
}

func TestValidateInstanceIntensionalPropsOptional(t *testing.T) {
	// Intensional properties (numberOfStakeholders) must not be required of
	// ground data.
	res := translateCompanyKG(t, "pg", "multi-label")
	view, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	g := pg.New()
	g.AddNode([]string{"Business", "LegalPerson", "Person"}, pg.Props{
		"fiscalCode":          value.Str("B1"),
		"businessName":        value.Str("acme"),
		"legalNature":         value.Str("spa"),
		"shareholdingCapital": value.FloatV(1),
	})
	for _, v := range ValidateInstance(g, view) {
		if strings.Contains(v.Detail, "numberOfStakeholders") {
			t.Errorf("intensional property must not be required: %v", v)
		}
		if strings.Contains(v.Detail, "website") && v.Kind == "missing-property" {
			t.Errorf("optional property must not be required: %v", v)
		}
	}
}

// TestValidateCardinalities runs the participation check over the mutable
// graph, its frozen snapshot and an overlay whose batch gives the second
// Share a second BELONGS_TO edge.
func TestValidateCardinalities(t *testing.T) {
	g := pg.New()
	a := g.AddNode([]string{"Share"}, nil).ID
	b := g.AddNode([]string{"Share"}, nil).ID
	biz1 := g.AddNode([]string{"Business"}, nil).ID
	biz2 := g.AddNode([]string{"Business"}, nil).ID
	g.MustAddEdge(a, biz1, "BELONGS_TO", nil)
	g.MustAddEdge(a, biz2, "BELONGS_TO", nil) // violates at-most-one
	g.MustAddEdge(biz1, a, "HOLDS", nil)      // another label, not counted
	// b violates mandatory participation.

	tooMany := func(id pg.OID) Violation {
		return Violation{Kind: "cardinality", Subject: fmt.Sprintf("node %d", id),
			Detail: "2 outgoing BELONGS_TO edges, at most 1 allowed"}
	}
	want := []Violation{tooMany(a), {Kind: "cardinality", Subject: fmt.Sprintf("node %d", b),
		Detail: "no outgoing BELONGS_TO edge, participation is mandatory"}}
	ov := overlay.New(g.Freeze())
	if _, err := ov.Apply([]overlay.Op{
		{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: b}, To: overlay.Ref{ID: biz1}, Label: "BELONGS_TO"},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: b}, To: overlay.Ref{ID: biz2}, Label: "BELONGS_TO"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		v    pg.View
		want []Violation
	}{
		{"graph", g, want},
		{"frozen", g.Freeze(), want},
		{"overlay", ov, []Violation{tooMany(a), tooMany(b)}},
	} {
		if got := ValidateCardinalities(tc.v, "BELONGS_TO", true, true, "Share"); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: violations = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestValidateGeneratedInstanceAgainstFigure6(t *testing.T) {
	// The synthetic Company KG instances conform to the Figure 6 schema by
	// construction — cross-check generator and translator against each
	// other, ignoring the Entity convenience label.
	res := translateCompanyKG(t, "pg", "multi-label")
	view, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	// Generated businesses carry Business:LegalPerson:Person, persons carry
	// PhysicalPerson:Person; both are valid label sets of the view.
	if view.NodeByLabel("Business") == nil || view.NodeByLabel("PhysicalPerson") == nil {
		t.Fatal("view misses expected node types")
	}
	g := pg.New()
	p := g.AddNode([]string{"Person", "PhysicalPerson"}, pg.Props{
		"fiscalCode": value.Str("P1"), "name": value.Str("Rossi Maria"), "gender": value.Str("female"),
	}).ID
	sh := g.AddNode([]string{"Share"}, pg.Props{
		"shareCode": value.Str("S1"), "percentage": value.FloatV(1.0),
	}).ID
	bz := g.AddNode([]string{"Business", "LegalPerson", "Person"}, pg.Props{
		"fiscalCode": value.Str("B1"), "businessName": value.Str("acme"),
		"legalNature": value.Str("spa"), "shareholdingCapital": value.FloatV(5),
	}).ID
	g.MustAddEdge(p, sh, "HOLDS", pg.Props{"right": value.Str("ownership"), "percentage": value.FloatV(1)})
	g.MustAddEdge(sh, bz, "BELONGS_TO", nil)
	if got := ValidateInstance(g, view); len(got) != 0 {
		t.Errorf("conforming instance reported violations: %v", got)
	}
}

// TestValidationAndEmissionAcrossViews: ValidateInstance, ValidateModifiers
// and EmitNTriples read a view only through its row scans, so a mutable
// graph and its frozen snapshot answer alike, and so do an overlay with
// pending batches and its compaction.
func TestValidationAndEmissionAcrossViews(t *testing.T) {
	res := translateCompanyKG(t, "pg", "multi-label")
	view, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	schema := supermodel.CompanyKG()
	same := func(tag string, a, b pg.View) {
		t.Helper()
		va, vb := ValidateInstance(a, view), ValidateInstance(b, view)
		if len(va) == 0 || !reflect.DeepEqual(va, vb) {
			t.Errorf("%s: ValidateInstance\n%v\nvs\n%v", tag, va, vb)
		}
		ma, mb := ValidateModifiers(a, schema), ValidateModifiers(b, schema)
		if len(ma) == 0 || !reflect.DeepEqual(ma, mb) {
			t.Errorf("%s: ValidateModifiers\n%v\nvs\n%v", tag, ma, mb)
		}
		if na, nb := EmitNTriples(a, "urn:kg"), EmitNTriples(b, "urn:kg"); na != nb {
			t.Errorf("%s: EmitNTriples\n%s\nvs\n%s", tag, na, nb)
		}
	}

	g := pg.New()
	person := func(code, gender string, extra pg.Props) pg.OID {
		props := pg.Props{"fiscalCode": value.Str(code), "name": value.Str("N " + code), "gender": value.Str(gender)}
		for k, v := range extra {
			props[k] = v
		}
		return g.AddNode([]string{"Person", "PhysicalPerson"}, props).ID
	}
	p1 := person("P1", "female", nil)
	p2 := person("P1", "robot", pg.Props{"color": value.Str("red")}) // duplicate code, enum, unknown property
	sh := g.AddNode([]string{"Share"}, pg.Props{"shareCode": value.Str("S1"), "percentage": value.FloatV(3)}).ID
	bz := g.AddNode([]string{"Business", "LegalPerson", "Person"}, pg.Props{
		"fiscalCode": value.Str("B1"), "businessName": value.Str("acme"),
		"legalNature": value.Str("spa"), "shareholdingCapital": value.FloatV(5),
	}).ID
	g.AddNode([]string{"Alien"}, nil)
	g.MustAddEdge(p1, sh, "HOLDS", pg.Props{"right": value.Str("ownership"), "percentage": value.FloatV(1)})
	g.MustAddEdge(sh, bz, "BELONGS_TO", nil)
	g.MustAddEdge(bz, sh, "BELONGS_TO", nil) // wrong direction
	g.MustAddEdge(p2, p1, "FRIENDS", nil)    // unknown relationship
	f := g.Freeze()
	same("graph vs freeze", g, f)

	ov := overlay.New(f)
	for _, batch := range [][]overlay.Op{
		{
			{Kind: overlay.OpAddNode, Name: "s", Labels: []string{"Share"}, Props: pg.Props{"shareCode": value.Str("S2"), "percentage": value.FloatV(-1)}},
			{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: p2}, To: overlay.Ref{Name: "s"}, Label: "HOLDS"},
			{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: p1}, Key: "gender", Value: value.Str("other")},
		},
		{
			{Kind: overlay.OpDelNodeProp, Node: overlay.Ref{ID: bz}, Key: "businessName"},
			{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: sh}, Label: "Place"},
			{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: p1}},
		},
	} {
		if _, err := ov.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	compacted, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	same("overlay vs compaction", ov, compacted)
}
