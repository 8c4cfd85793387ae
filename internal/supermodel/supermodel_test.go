package supermodel

import (
	"reflect"
	"testing"

	"repro/internal/pg"
	"repro/internal/snapfile"
)

func TestSchemaBuilderValidation(t *testing.T) {
	s := NewSchema("t", 1)
	if _, err := s.AddNode("A", false, Attr("id", String).ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddNode("A", false); err == nil {
		t.Error("duplicate node name must fail")
	}
	if _, err := s.AddNode("B", false, Attr("x", "bogus")); err == nil {
		t.Error("bad data type must fail")
	}
	if _, err := s.AddNode("C", false, Attr("x", String).ID().Opt()); err == nil {
		t.Error("identifying optional attribute must fail")
	}
	if _, err := s.AddEdge("E", false, "A", "Zed", ZeroToMany, ZeroToMany); err == nil {
		t.Error("dangling edge target must fail")
	}
	if _, err := s.AddEdge("E", false, "A", "A", ZeroToMany, ZeroToMany, Attr("k", String).ID()); err == nil {
		t.Error("identifying edge attribute must fail")
	}
	if _, err := s.AddGeneralization("", "A", []string{"A"}, true, true); err == nil {
		t.Error("self-generalization must fail")
	}
}

func TestGeneralizationCycleRejected(t *testing.T) {
	s := NewSchema("t", 1)
	s.MustAddNode("A", false, Attr("id", String).ID())
	s.MustAddNode("B", false)
	s.MustAddGeneralization("", "A", []string{"B"}, true, true)
	s.MustAddGeneralization("", "B", []string{"A"}, true, true)
	if err := s.Validate(); err == nil {
		t.Error("generalization cycle must be rejected")
	}
}

func TestMissingIdentifierRejected(t *testing.T) {
	s := NewSchema("t", 1)
	s.MustAddNode("A", false, Attr("x", String))
	if err := s.Validate(); err == nil {
		t.Error("node without identifier must be rejected")
	}
}

func TestInheritedIdentifierAccepted(t *testing.T) {
	s := NewSchema("t", 1)
	s.MustAddNode("Parent", false, Attr("id", String).ID())
	s.MustAddNode("Child", false, Attr("extra", String))
	s.MustAddGeneralization("", "Parent", []string{"Child"}, false, true)
	if err := s.Validate(); err != nil {
		t.Errorf("child should inherit parent identifier: %v", err)
	}
}

func TestHierarchyQueries(t *testing.T) {
	s := CompanyKG()
	if got := s.Ancestors("PublicListedCompany"); !reflect.DeepEqual(got, []string{"Business", "LegalPerson", "Person"}) {
		t.Errorf("Ancestors(PublicListedCompany) = %v", got)
	}
	if got := s.Descendants("Person"); len(got) != 5 {
		t.Errorf("Descendants(Person) = %v (want 5)", got)
	}
	eff := s.EffectiveAttributes("Business")
	names := map[string]bool{}
	for _, a := range eff {
		names[a.Name] = true
	}
	for _, want := range []string{"shareholdingCapital", "businessName", "legalNature", "fiscalCode"} {
		if !names[want] {
			t.Errorf("Business effective attributes missing %s: %v", want, names)
		}
	}
	ids := s.EffectiveIDAttributes("PublicListedCompany")
	if len(ids) != 1 || ids[0].Name != "fiscalCode" {
		t.Errorf("PublicListedCompany id attrs = %v", ids)
	}
}

// TestFigure4CompanyKG validates the reference schema of Figure 4 and its
// Section 3.3 design decisions.
func TestFigure4CompanyKG(t *testing.T) {
	s := CompanyKG()
	if err := s.Validate(); err != nil {
		t.Fatalf("Company KG must validate: %v", err)
	}
	// The PersonKind generalization is total and disjoint.
	var pk *Generalization
	for _, g := range s.Generalizations {
		if g.Parent == "Person" {
			pk = g
		}
	}
	if pk == nil || !pk.IsTotal || !pk.IsDisjoint {
		t.Errorf("Person generalization must be total and disjoint: %+v", pk)
	}
	// BusinessKind is non-total.
	for _, g := range s.Generalizations {
		if g.Parent == "Business" && g.IsTotal {
			t.Errorf("Business -> PublicListedCompany generalization must not be total")
		}
	}
	// Intensional constructs per the walk-through.
	for _, name := range []string{"OWNS", "CONTROLS", "IS_RELATED_TO", "BELONGS_TO_FAMILY", "FAMILY_OWNS"} {
		e := s.Edge(name)
		if e == nil || !e.IsIntensional {
			t.Errorf("edge %s must exist and be intensional", name)
		}
	}
	if n := s.Node("Family"); n == nil || !n.IsIntensional {
		t.Errorf("Family must be an intensional node")
	}
	if a := s.Node("Business").Attribute("numberOfStakeholders"); a == nil || !a.IsIntensional {
		t.Errorf("numberOfStakeholders must be an intensional attribute")
	}
	// HOLDS/BELONGS_TO decoupling: HOLDS targets Share, BELONGS_TO links
	// Share to Business with each share belonging to exactly one business.
	holds := s.Edge("HOLDS")
	if holds.From != "Person" || holds.To != "Share" {
		t.Errorf("HOLDS endpoints = %s -> %s", holds.From, holds.To)
	}
	bt := s.Edge("BELONGS_TO")
	if bt.From != "Share" || bt.To != "Business" || !bt.FromCard.Max1 || bt.FromCard.Min != 1 {
		t.Errorf("BELONGS_TO must map each share to exactly one business: %+v", bt)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	s := CompanyKG()
	dict := NewDictionary()
	if err := ToDictionary(s, dict); err != nil {
		t.Fatal(err)
	}
	back, err := FromDictionary(dict, CompanyKGOID, "CompanyKG")
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped schema must validate: %v", err)
	}
	if len(back.Nodes) != len(s.Nodes) || len(back.Edges) != len(s.Edges) || len(back.Generalizations) != len(s.Generalizations) {
		t.Fatalf("round trip size mismatch: %s vs %s", back.Stats(), s.Stats())
	}
	for _, n := range s.Nodes {
		bn := back.Node(n.Name)
		if bn == nil {
			t.Fatalf("node %s lost in round trip", n.Name)
		}
		if bn.IsIntensional != n.IsIntensional {
			t.Errorf("node %s intensional flag lost", n.Name)
		}
		if len(bn.Attributes) != len(n.Attributes) {
			t.Errorf("node %s attribute count %d vs %d", n.Name, len(bn.Attributes), len(n.Attributes))
		}
		for _, a := range n.Attributes {
			ba := bn.Attribute(a.Name)
			if ba == nil {
				t.Errorf("attribute %s.%s lost", n.Name, a.Name)
				continue
			}
			if ba.Type != a.Type || ba.IsID != a.IsID || ba.IsOpt != a.IsOpt || ba.IsIntensional != a.IsIntensional {
				t.Errorf("attribute %s.%s flags changed: %+v vs %+v", n.Name, a.Name, ba, a)
			}
			if len(ba.Modifiers) != len(a.Modifiers) {
				t.Errorf("attribute %s.%s modifiers %d vs %d", n.Name, a.Name, len(ba.Modifiers), len(a.Modifiers))
			}
		}
	}
	for _, e := range s.Edges {
		be := back.Edge(e.Name)
		if be == nil {
			t.Fatalf("edge %s lost", e.Name)
		}
		if be.From != e.From || be.To != e.To || be.FromCard != e.FromCard || be.ToCard != e.ToCard || be.IsIntensional != e.IsIntensional {
			t.Errorf("edge %s changed: %+v vs %+v", e.Name, be, e)
		}
	}
}

func TestDictionaryMultipleSchemas(t *testing.T) {
	dict := NewDictionary()
	s1 := NewSchema("one", 1)
	s1.MustAddNode("A", false, Attr("id", String).ID())
	s2 := NewSchema("two", 2)
	s2.MustAddNode("B", false, Attr("id", String).ID())
	if err := ToDictionary(s1, dict); err != nil {
		t.Fatal(err)
	}
	if err := ToDictionary(s2, dict); err != nil {
		t.Fatal(err)
	}
	if err := ToDictionary(s1, dict); err == nil {
		t.Error("duplicate schemaOID must be rejected")
	}
	b1, err := FromDictionary(dict, 1, "one")
	if err != nil {
		t.Fatal(err)
	}
	if b1.Node("A") == nil || b1.Node("B") != nil {
		t.Errorf("schema 1 contents wrong: %s", b1.Stats())
	}
}

// TestFigure2MetaModel checks the meta-model dictionary of Figure 2.
func TestFigure2MetaModel(t *testing.T) {
	g := MetaModelDictionary()
	if g.NumNodes() != 3 {
		t.Fatalf("meta-model has %d nodes, want 3 (MM_Entity, MM_Link, MM_Property)", g.NumNodes())
	}
	for _, label := range []string{"MM_Entity", "MM_Link", "MM_Property"} {
		if len(g.NodesByLabel(label)) != 1 {
			t.Errorf("meta-model missing construct %s", label)
		}
	}
	if len(g.EdgesByLabel("MM_HAS_PROPERTY")) != 2 {
		t.Errorf("meta-model should connect entities and links to properties")
	}
	if len(g.EdgesByLabel("MM_SOURCE")) != 1 || len(g.EdgesByLabel("MM_TARGET")) != 1 {
		t.Errorf("MM_Link must have source and target links to MM_Entity")
	}
}

// TestFigure3SuperModel checks the super-model dictionary of Figure 3:
// every super-construct is present with its meta-kind, attributes and link
// endpoints.
func TestFigure3SuperModel(t *testing.T) {
	specs := SuperModelConstructs()
	byName := map[string]SuperConstructSpec{}
	for _, sc := range specs {
		byName[sc.Name] = sc
	}
	for _, want := range []string{
		"SM_Node", "SM_Edge", "SM_Type", "SM_Attribute", "SM_Generalization",
		"SM_AttributeModifier", "SM_UniqueAttributeModifier",
		"SM_HAS_NODE_TYPE", "SM_HAS_EDGE_TYPE", "SM_HAS_NODE_PROPERTY",
		"SM_HAS_EDGE_PROPERTY", "SM_FROM", "SM_TO", "SM_PARENT", "SM_CHILD",
		"SM_HAS_MODIFIER",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("super-model dictionary missing construct %s", want)
		}
	}
	if got := byName["SM_Edge"].Attributes; len(got) != 5 {
		t.Errorf("SM_Edge attributes = %v, want isIntensional + 4 cardinality flags", got)
	}
	if byName["SM_FROM"].Source != "SM_Edge" || byName["SM_FROM"].Target != "SM_Node" {
		t.Errorf("SM_FROM endpoints wrong: %+v", byName["SM_FROM"])
	}
	if byName["SM_PARENT"].Source != "SM_Generalization" {
		t.Errorf("SM_PARENT source wrong: %+v", byName["SM_PARENT"])
	}

	g := SuperModelDictionary()
	entities := g.NodesByLabel("MM_Entity")
	if len(entities) != 10 {
		t.Errorf("super-model dictionary has %d MM_Entity nodes, want 10", len(entities))
	}
	if n := len(g.EdgesByLabel("MM_Link")); n != 9 {
		t.Errorf("super-model dictionary has %d MM_Link edges, want 9", n)
	}
	if n := len(g.EdgesByLabel("MM_SPECIALIZES")); n != 4 {
		t.Errorf("modifier specializations = %d, want 4", n)
	}
}

func TestCardinalityParsing(t *testing.T) {
	for s, want := range map[string]Cardinality{
		"0..N": ZeroToMany, "0..1": ZeroToOne, "1..N": OneToMany, "1..1": ExactlyOne,
	} {
		got, err := ParseCardinality(s)
		if err != nil || got != want {
			t.Errorf("ParseCardinality(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCardinality("2..3"); err == nil {
		t.Error("arbitrary cardinalities must be rejected")
	}
	if ZeroToMany.String() != "0..N" || ExactlyOne.String() != "1..1" {
		t.Error("cardinality rendering wrong")
	}
}

func TestEdgeShapePredicates(t *testing.T) {
	e := &Edge{FromCard: ZeroToMany, ToCard: ZeroToMany}
	if !e.IsManyToMany() || e.IsOneToMany() || e.IsManyToOne() || e.IsOneToOne() {
		t.Error("N:M classification wrong")
	}
	e = &Edge{FromCard: ZeroToMany, ToCard: ExactlyOne}
	if !e.IsOneToMany() {
		t.Error("1:N classification wrong")
	}
	e = &Edge{FromCard: ZeroToOne, ToCard: ZeroToMany}
	if !e.IsManyToOne() {
		t.Error("N:1 classification wrong")
	}
	e = &Edge{FromCard: ExactlyOne, ToCard: ZeroToOne}
	if !e.IsOneToOne() {
		t.Error("1:1 classification wrong")
	}
}

func TestListSchemas(t *testing.T) {
	dict := NewDictionary()
	if err := ToDictionary(CompanyKG(), dict); err != nil {
		t.Fatal(err)
	}
	mini := NewSchema("mini", 7)
	mini.MustAddNode("A", false, Attr("id", String).ID())
	if err := ToDictionary(mini, dict); err != nil {
		t.Fatal(err)
	}
	infos := ListSchemas(dict)
	if len(infos) != 2 {
		t.Fatalf("schemas = %+v", infos)
	}
	if infos[0].OID != 7 || infos[0].Nodes != 1 {
		t.Errorf("mini info = %+v", infos[0])
	}
	if infos[1].OID != CompanyKGOID || infos[1].Nodes != 11 || infos[1].Edges != 11 || infos[1].Generalizations != 4 {
		t.Errorf("companykg info = %+v", infos[1])
	}

	// kgse -list reads a snapshot of the dictionary as well as its JSON.
	frozen := dict.Freeze()
	data, err := snapfile.Encode(frozen, snapfile.BuildInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapfile.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]pg.View{"frozen": frozen, "snapshot": snap.Frozen} {
		if got := ListSchemas(v); !reflect.DeepEqual(got, infos) {
			t.Errorf("%s: schemas = %+v, want %+v", name, got, infos)
		}
	}
}
