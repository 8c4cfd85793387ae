package models

import (
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/value"
)

func modifierSchema(t *testing.T) *supermodel.Schema {
	t.Helper()
	s := supermodel.NewSchema("mods", 5)
	s.MustAddNode("Share", false,
		supermodel.Attr("code", supermodel.String).ID(),
		supermodel.Attr("percentage", supermodel.Float).With(supermodel.RangeModifier{Min: 0, Max: 1}),
		supermodel.Attr("right", supermodel.String).With(supermodel.EnumModifier{Values: []string{"ownership", "usufruct"}}),
		supermodel.Attr("currency", supermodel.String).Opt().With(supermodel.DefaultModifier{Value: "EUR"}),
	)
	return s
}

func TestValidateModifiers(t *testing.T) {
	s := modifierSchema(t)
	g := pg.New()
	g.AddNode([]string{"Share"}, pg.Props{
		"code": value.Str("ok"), "percentage": value.FloatV(0.4), "right": value.Str("ownership"),
	})
	g.AddNode([]string{"Share"}, pg.Props{
		"code": value.Str("bad1"), "percentage": value.FloatV(1.4), "right": value.Str("ownership"),
	})
	g.AddNode([]string{"Share"}, pg.Props{
		"code": value.Str("bad2"), "percentage": value.FloatV(0.2), "right": value.Str("theft"),
	})
	got := ValidateModifiers(g, s)
	if len(got) != 2 {
		t.Fatalf("violations = %v", got)
	}
	if !strings.Contains(got[0].Detail, "outside range") {
		t.Errorf("first violation = %v", got[0])
	}
	if !strings.Contains(got[1].Detail, "not in enum") {
		t.Errorf("second violation = %v", got[1])
	}

	// A label set with two unrelated most-specific types is a node Algorithm
	// 2 refuses to load: validation says so instead of picking one.
	kg := supermodel.CompanyKG()
	amb := pg.New()
	amb.AddNode([]string{"Business", "Place"}, pg.Props{"fiscalCode": value.Str("X")})
	got = ValidateModifiers(amb, kg)
	if len(got) != 1 || got[0].Kind != "modifier" || !strings.Contains(got[0].Detail, "ambiguous most-specific type") {
		t.Errorf("ambiguous label set: violations = %v, want the one ambiguity", got)
	}
	if n := ApplyDefaults(amb, kg); n != 0 {
		t.Errorf("ApplyDefaults set %d properties on a node with no single type", n)
	}
}

func TestValidateModifiersInheritedAttributes(t *testing.T) {
	// Modifiers on parent attributes apply to child-typed nodes.
	s := supermodel.NewSchema("inh", 6)
	s.MustAddNode("Person", false,
		supermodel.Attr("code", supermodel.String).ID(),
		supermodel.Attr("gender", supermodel.String).With(supermodel.EnumModifier{Values: []string{"female", "male", "other"}}),
	)
	s.MustAddNode("Employee", false)
	s.MustAddGeneralization("", "Person", []string{"Employee"}, false, true)
	g := pg.New()
	g.AddNode([]string{"Employee", "Person"}, pg.Props{
		"code": value.Str("e1"), "gender": value.Str("robot"),
	})
	got := ValidateModifiers(g, s)
	if len(got) != 1 || !strings.Contains(got[0].Detail, "not in enum") {
		t.Errorf("inherited modifier not enforced: %v", got)
	}
}

func TestApplyDefaults(t *testing.T) {
	s := modifierSchema(t)
	g := pg.New()
	withCur := g.AddNode([]string{"Share"}, pg.Props{
		"code": value.Str("a"), "percentage": value.FloatV(0.1), "right": value.Str("ownership"),
		"currency": value.Str("USD"),
	}).ID
	withoutCur := g.AddNode([]string{"Share"}, pg.Props{
		"code": value.Str("b"), "percentage": value.FloatV(0.1), "right": value.Str("ownership"),
	}).ID
	if n := ApplyDefaults(g, s); n != 1 {
		t.Fatalf("defaults set = %d", n)
	}
	if got := g.Node(withCur).Props["currency"].S; got != "USD" {
		t.Errorf("existing value clobbered: %s", got)
	}
	if got := g.Node(withoutCur).Props["currency"].S; got != "EUR" {
		t.Errorf("default not applied: %q", got)
	}
	// Idempotent.
	if n := ApplyDefaults(g, s); n != 0 {
		t.Errorf("second pass set %d", n)
	}
}

func TestValidateModifiersCompanyKG(t *testing.T) {
	// The Figure 4 schema carries enum and range modifiers; generated data
	// conforms.
	s := supermodel.CompanyKG()
	g := pg.New()
	g.AddNode([]string{"Share"}, pg.Props{
		"shareCode": value.Str("S1"), "percentage": value.FloatV(0.5),
	})
	g.AddNode([]string{"Person", "PhysicalPerson"}, pg.Props{
		"fiscalCode": value.Str("P"), "name": value.Str("X Y"), "gender": value.Str("female"),
	})
	if got := ValidateModifiers(g, s); len(got) != 0 {
		t.Errorf("conforming data flagged: %v", got)
	}
	g.AddNode([]string{"Share"}, pg.Props{
		"shareCode": value.Str("S2"), "percentage": value.FloatV(3.0),
	})
	if got := ValidateModifiers(g, s); len(got) != 1 {
		t.Errorf("range violation missed: %v", got)
	}
}
