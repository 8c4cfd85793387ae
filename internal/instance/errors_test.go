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

func newCompanyDict(t *testing.T) *Dictionary {
	t.Helper()
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadPGUnknownLabel(t *testing.T) {
	d := newCompanyDict(t)
	g := pg.New()
	g.AddNode([]string{"Martian"}, nil)
	if _, err := d.LoadPG(g, 1); err == nil || !strings.Contains(err.Error(), "no schema label") {
		t.Errorf("unknown label must fail, got %v", err)
	}
}

func TestLoadPGSkipsNonSchemaProps(t *testing.T) {
	d := newCompanyDict(t)
	g := pg.New()
	g.AddNode([]string{"Business"}, pg.Props{
		"fiscalCode": value.Str("B1"),
		"_internal":  value.Str("ignored"),
		"randomJunk": value.IntV(3),
	})
	loaded, err := d.LoadPG(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range loaded.Entities {
		if _, ok := ent.Attrs.Get("randomJunk"); ok {
			t.Error("non-schema property must not load")
		}
		if _, ok := ent.Attrs.Get("fiscalCode"); !ok {
			t.Error("schema property missing")
		}
	}
}

func TestLoadRelationalDanglingFK(t *testing.T) {
	d := newCompanyDict(t)
	ri := &RelationalInstance{Tables: map[string][]Row{
		"Person":   {{"fiscalCode": value.Str("A")}},
		"Business": {{"fiscalCode": value.Str("A"), "shareholdingCapital": value.FloatV(1)}},
		"OWNS": {{
			"fk_owns_src_fiscalCode": value.Str("A"),
			"fk_owns_dst_fiscalCode": value.Str("GHOST"),
			"percentage":             value.FloatV(0.5),
		}},
	}}
	if _, err := d.LoadRelational(ri, 1); err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("dangling FK must fail, got %v", err)
	}
}

func TestLoadRelationalMissingIdentifier(t *testing.T) {
	d := newCompanyDict(t)
	ri := &RelationalInstance{Tables: map[string][]Row{
		"Business": {{"shareholdingCapital": value.FloatV(1)}},
	}}
	if _, err := d.LoadRelational(ri, 1); err == nil || !strings.Contains(err.Error(), "identifier") {
		t.Errorf("row without identifier must fail, got %v", err)
	}
}

// TestLoadRelationalUnrelatedTypesShareKey: a PhysicalPerson and a Business
// with the same fiscal code are two entities no table-per-class join can
// merge; the load must name both types and the key, not keep one of them or
// blame an attribute of the other.
func TestLoadRelationalUnrelatedTypesShareKey(t *testing.T) {
	for _, biz := range []Row{
		{"fiscalCode": value.Str("X1")},
		{"fiscalCode": value.Str("X1"), "shareholdingCapital": value.FloatV(1)},
	} {
		d := newCompanyDict(t)
		ri := &RelationalInstance{Tables: map[string][]Row{
			"PhysicalPerson": {{"fiscalCode": value.Str("X1"), "name": value.Str("Ann"), "gender": value.Str("female")}},
			"Business":       {biz},
		}}
		before := d.next
		_, err := d.LoadRelational(ri, 1)
		var ce *EntityConflictError
		if !errors.As(err, &ce) {
			t.Fatalf("Business row %v: err = %v, want *EntityConflictError", biz, err)
		}
		if types := map[string]bool{ce.Types[0]: true, ce.Types[1]: true}; !types["PhysicalPerson"] || !types["Business"] || ce.Key != `"X1"` {
			t.Errorf("conflict = %+v, want PhysicalPerson and Business on \"X1\"", *ce)
		}
		if msg := err.Error(); !strings.Contains(msg, ce.Types[0]) || !strings.Contains(msg, ce.Types[1]) || !strings.Contains(msg, ce.Key) {
			t.Errorf("error %q does not name both types and the key", msg)
		}
		if d.next != before || len(d.attached) != 0 {
			t.Error("a failed load kept its OIDs or attached its instance")
		}
	}
}

// TestConstructsRefusesOIDClash: a construct added to the dictionary graph
// after an instance was loaded takes an OID the instance level already
// allocated, and the rendering reports it instead of dropping either.
func TestConstructsRefusesOIDClash(t *testing.T) {
	d := newCompanyDict(t)
	if _, err := d.LoadPG(buildCompanyData(t), 1); err != nil {
		t.Fatal(err)
	}
	d.Graph.AddNode([]string{"Late"}, nil)
	if _, err := d.Constructs(); err == nil || !strings.Contains(err.Error(), "already") {
		t.Errorf("Constructs over a clashing OID = %v, want the clash", err)
	}
}

func TestMaterializeRejectsBadSigma(t *testing.T) {
	d := newCompanyDict(t)
	g := pg.New()
	// Σ that derives an edge type outside the schema fails at flush time
	// with a helpful error.
	sigma := metalog.MustParse(`(x: Business) -> (x) [e: TELEPORTS_TO] (x).`)
	g.AddNode([]string{"Business"}, pg.Props{"fiscalCode": value.Str("B")})
	_, err := Materialize(d, PGSource{Data: g}, sigma, 1, vadalog.Options{})
	if err == nil || !strings.Contains(err.Error(), "TELEPORTS_TO") {
		t.Errorf("off-schema derivation must fail mentioning the type, got %v", err)
	}
}

func TestIndexDictionaryMissingConstruct(t *testing.T) {
	// A dictionary holding a different schema cannot be indexed for this one.
	other := supermodel.NewSchema("other", 99)
	other.MustAddNode("X", false, supermodel.Attr("id", supermodel.String).ID())
	g := supermodel.NewDictionary()
	if err := supermodel.ToDictionary(other, g); err != nil {
		t.Fatal(err)
	}
	if _, err := IndexDictionary(g, supermodel.CompanyKG()); err == nil {
		t.Error("indexing against the wrong dictionary must fail")
	}
}

func TestCatalogFromSchemaLayouts(t *testing.T) {
	cat := CatalogFromSchema(supermodel.CompanyKG())
	// Business exposes its effective attributes: own + inherited.
	props := cat.NodeProps["Business"]
	want := map[string]bool{"fiscalCode": true, "businessName": true, "shareholdingCapital": true}
	seen := map[string]bool{}
	for _, p := range props {
		seen[p] = true
	}
	for w := range want {
		if !seen[w] {
			t.Errorf("Business catalog missing %s: %v", w, props)
		}
	}
	if got := cat.EdgeProps["HOLDS"]; len(got) != 2 {
		t.Errorf("HOLDS catalog = %v", got)
	}
}
