package models

import (
	"reflect"
	"testing"

	"repro/internal/supermodel"
)

// translateCompanyKG runs SSST over the Figure 4 schema (OID 123) with the
// given mapping; S⁻ and S′ land at OIDs 124 and 125.
func translateCompanyKG(t *testing.T, model, strategy string) *TranslateResult {
	t.Helper()
	res, err := TranslateSchema(supermodel.CompanyKG(), model, strategy)
	if err != nil {
		t.Fatalf("SSST translate: %v", err)
	}
	return res
}

// Test-only lookups over the typed views and the model dictionaries.

// NodeByLabel returns the node view carrying the given label, preferring
// the one for which the label is primary (smallest label set).
func (v *PGSchemaView) NodeByLabel(label string) *PGNodeView {
	var best *PGNodeView
	for i := range v.Nodes {
		n := &v.Nodes[i]
		has := false
		for _, l := range n.Labels {
			if l == label {
				has = true
			}
		}
		if !has {
			continue
		}
		if best == nil || len(n.Labels) < len(best.Labels) {
			best = n
		}
	}
	return best
}

// RelsByName returns the relationship views with the given name.
func (v *PGSchemaView) RelsByName(name string) []PGRelView {
	var out []PGRelView
	for _, r := range v.Rels {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// Supports reports whether the model specializes the super-construct.
func (m Model) Supports(superConstruct string) bool { return m.Construct(superConstruct) != "" }

// TestFigure6Translation reproduces Figure 6: the Company KG super-schema
// translated to the PG model with multi-label tagging. TestPGOracleTable holds
// the whole view to the native translation; these are the figure's spot
// checks.
func TestFigure6Translation(t *testing.T) {
	res := translateCompanyKG(t, "pg", "multi-label")
	got, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}

	// Figure 6 spot checks: Business carries its whole ancestry as labels.
	biz := got.NodeByLabel("Business")
	if biz == nil {
		t.Fatal("no Business node view")
	}
	wantLabels := []string{"Business", "LegalPerson", "Person"}
	if !reflect.DeepEqual(biz.Labels, wantLabels) {
		t.Errorf("Business labels = %v, want %v", biz.Labels, wantLabels)
	}
	// ... and the inherited attributes, down from Person and LegalPerson.
	names := map[string]bool{}
	for _, p := range biz.Properties {
		names[p.Name] = true
	}
	for _, want := range []string{"fiscalCode", "businessName", "legalNature", "shareholdingCapital", "numberOfStakeholders"} {
		if !names[want] {
			t.Errorf("Business properties missing %s: %v", want, names)
		}
	}
	// No generalization survives in the PG schema.
	for _, r := range got.Rels {
		if r.Name == "SM_PARENT" || r.Name == "SM_CHILD" {
			t.Errorf("generalization link leaked into PG schema: %v", r)
		}
	}
}

// TestExample51TypeAccumulation is the E12 check for Example 5.1: nodes of
// S⁻ accumulate the types inherited from their parent nodes, at any level.
func TestExample51TypeAccumulation(t *testing.T) {
	res := translateCompanyKG(t, "pg", "multi-label")
	got, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	plc := got.NodeByLabel("PublicListedCompany")
	if plc == nil {
		t.Fatal("no PublicListedCompany node view")
	}
	want := []string{"Business", "LegalPerson", "Person", "PublicListedCompany"}
	if !reflect.DeepEqual(plc.Labels, want) {
		t.Errorf("PublicListedCompany labels = %v, want %v (3-level accumulation)", plc.Labels, want)
	}
}

// TestExample52EdgeInheritance is the E12 check for Example 5.2: outgoing
// edges of a parent node are inherited by its children.
func TestExample52EdgeInheritance(t *testing.T) {
	res := translateCompanyKG(t, "pg", "multi-label")
	got, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	// HOLDS is declared on Person; PhysicalPerson and LegalPerson (and the
	// deeper descendants) must each get an inherited copy.
	holds := got.RelsByName("HOLDS")
	fromPrimary := map[string]bool{}
	for _, r := range holds {
		// The most specific label identifies the inheriting source.
		var labels []string
		labels = append(labels, r.FromLabels...)
		fromPrimary[labels[len(labels)-1]] = true
	}
	// Count the copies: Person + its 5 descendants on the source side, plus
	// the incoming-inheritance copy targeting StockShare.
	if len(holds) != 7 {
		t.Errorf("HOLDS should have 7 copies (Person + 5 descendants + StockShare target), got %d", len(holds))
	}
	_ = fromPrimary
	// Every copy keeps the right/percentage attributes.
	for _, r := range holds {
		if len(r.Properties) != 2 {
			t.Errorf("inherited HOLDS copy lost attributes: %+v", r)
		}
	}
	// Incoming inheritance: HOLDS targets Share, which has StockShare as a
	// descendant — one of the copies must target the StockShare label set.
	foundStock := false
	for _, r := range holds {
		for _, l := range r.ToLabels {
			if l == "StockShare" {
				foundStock = true
			}
		}
	}
	if !foundStock {
		t.Errorf("incoming edge inheritance to StockShare missing: %+v", holds)
	}
}

// TestPGChildEdgesStrategy checks the alternative implementation strategy:
// generalizations become IS_A relationships and nothing is inherited.
func TestPGChildEdgesStrategy(t *testing.T) {
	res := translateCompanyKG(t, "pg", "child-edges")
	got, err := ReadPGSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	isa := got.RelsByName("IS_A_Business_LegalPerson")
	if len(isa) != 1 {
		t.Errorf("IS_A relationship missing under child-edges strategy")
	}
	biz := got.NodeByLabel("Business")
	if len(biz.Labels) != 1 {
		t.Errorf("child-edges strategy must not multi-label: %v", biz.Labels)
	}
}

// TestFigure8Translation reproduces Figure 8: the Company KG super-schema
// translated to the relational model, cross-validated against the native
// translation.
func TestFigure8Translation(t *testing.T) {
	res := translateCompanyKG(t, "relational", "")
	got, err := ReadRelationalSchema(res.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	want := NativeToRelational(supermodel.CompanyKG())
	if len(got.Relations) != len(want.Relations) {
		gotNames := make([]string, len(got.Relations))
		for i, r := range got.Relations {
			gotNames[i] = r.Name
		}
		wantNames := make([]string, len(want.Relations))
		for i, r := range want.Relations {
			wantNames[i] = r.Name
		}
		t.Fatalf("relation count %d vs %d:\nMetaLog: %v\nNative:  %v", len(got.Relations), len(want.Relations), gotNames, wantNames)
	}
	for i := range want.Relations {
		g, w := got.Relations[i], want.Relations[i]
		if g.Name != w.Name {
			t.Fatalf("relation %d: %s vs %s", i, g.Name, w.Name)
		}
		if !reflect.DeepEqual(g.Fields, w.Fields) {
			t.Errorf("relation %s fields differ.\nMetaLog: %+v\nNative:  %+v", g.Name, g.Fields, w.Fields)
		}
		if !reflect.DeepEqual(g.ForeignKeys, w.ForeignKeys) {
			t.Errorf("relation %s foreign keys differ.\nMetaLog: %+v\nNative:  %+v", g.Name, g.ForeignKeys, w.ForeignKeys)
		}
	}

	// Figure 8 spot checks.
	// Table-per-class: each generalization member is a relation with an
	// IS-A foreign key to its parent.
	biz := got.Relation("Business")
	if biz == nil {
		t.Fatal("no Business relation")
	}
	foundISA := false
	for _, fk := range biz.ForeignKeys {
		if fk.Name == "FK_ISA_Business_LegalPerson" && fk.TargetRelation == "LegalPerson" {
			foundISA = true
			if !reflect.DeepEqual(fk.SourceFields, []string{"fiscalCode"}) {
				t.Errorf("ISA FK source fields = %v", fk.SourceFields)
			}
		}
	}
	if !foundISA {
		t.Errorf("Business must have an IS-A FK to LegalPerson: %+v", biz.ForeignKeys)
	}
	// The child relation carries the inherited identifier.
	if f := biz.Field("fiscalCode"); f == nil || !f.IsID {
		t.Errorf("Business must inherit fiscalCode as its key: %+v", biz.Fields)
	}
	// N:M HOLDS becomes a junction relation with two FKs.
	holds := got.Relation("HOLDS")
	if holds == nil {
		t.Fatal("no HOLDS junction relation")
	}
	if len(holds.ForeignKeys) != 2 {
		t.Errorf("HOLDS junction needs 2 FKs, got %+v", holds.ForeignKeys)
	}
	if holds.Field("right") == nil || holds.Field("percentage") == nil {
		t.Errorf("HOLDS junction lost the edge attributes: %+v", holds.Fields)
	}
	// Functional BELONGS_TO becomes a FK on Share referencing Business.
	share := got.Relation("Share")
	foundBT := false
	for _, fk := range share.ForeignKeys {
		if fk.Name == "BELONGS_TO" && fk.TargetRelation == "Business" {
			foundBT = true
		}
	}
	if !foundBT {
		t.Errorf("Share must hold the BELONGS_TO FK: %+v", share.ForeignKeys)
	}
	// Intensional CONTROLS becomes a (derived) junction relation.
	controls := got.Relation("CONTROLS")
	if controls == nil || !controls.IsIntensional {
		t.Errorf("CONTROLS must be an intensional junction relation: %+v", controls)
	}
}

// TestFigure5PGModel and TestFigure7RelationalModel check the model
// dictionaries: which super-constructs each model specializes, with the
// Figure 5 / Figure 7 names.
func TestFigure5PGModel(t *testing.T) {
	m := PGModel()
	checks := map[string]string{
		"SM_Node":                    "Node",
		"SM_Edge":                    "Relationship",
		"SM_Type":                    "Label",
		"SM_Attribute":               "Property",
		"SM_UniqueAttributeModifier": "UniquePropertyModifier",
	}
	for super, construct := range checks {
		if got := m.Construct(super); got != construct {
			t.Errorf("PG model: %s specialized by %q, want %q", super, got, construct)
		}
	}
	if m.Supports("SM_Generalization") {
		t.Errorf("the PG model must not support generalizations (they are eliminated)")
	}
}

func TestFigure7RelationalModel(t *testing.T) {
	m := RelationalModel()
	checks := map[string]string{
		"SM_Type":      "Relation",
		"SM_Attribute": "Field",
		"SM_Node":      "Predicate",
		"SM_Edge":      "ForeignKey",
	}
	for super, construct := range checks {
		if got := m.Construct(super); got != construct {
			t.Errorf("relational model: %s specialized by %q, want %q", super, got, construct)
		}
	}
	if m.Supports("SM_Generalization") {
		t.Errorf("the relational model must not support generalizations")
	}
	if RDFSModel().Construct("SM_Generalization") != "SubClassOf" {
		t.Errorf("RDFS must support generalizations natively")
	}
}

func TestSelectMapping(t *testing.T) {
	if _, err := SelectMapping(1, 2, 3, "pg", "multi-label"); err != nil {
		t.Error(err)
	}
	if _, err := SelectMapping(1, 2, 3, "pg", "nope"); err == nil {
		t.Error("unknown strategy must fail")
	}
	if _, err := SelectMapping(1, 2, 3, "zzz", ""); err == nil {
		t.Error("unknown model must fail")
	}
	m, err := SelectMapping(1, 2, 3, "pg", "")
	if err != nil || m.Strategy != "multi-label" {
		t.Errorf("default PG strategy should be multi-label: %+v, %v", m, err)
	}
}
