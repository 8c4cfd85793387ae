package instance

import (
	"testing"

	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// fkSchema exercises both foreign-key directions of the relational loader:
// ASSIGNED_TO is source-functional (the FK sits on the From relation) and
// MAKES is target-functional (the FK sits on the To relation).
func fkSchema(t *testing.T) *supermodel.Schema {
	t.Helper()
	s := supermodel.NewSchema("fk", 11)
	s.MustAddNode("Worker", false, supermodel.Attr("badge", supermodel.String).ID())
	s.MustAddNode("Team", false, supermodel.Attr("teamId", supermodel.String).ID())
	s.MustAddNode("Product", false, supermodel.Attr("sku", supermodel.String).ID())
	// Each worker belongs to at most one team: FK on Worker.
	s.MustAddEdge("ASSIGNED_TO", false, "Worker", "Team", supermodel.ZeroToOne, supermodel.ZeroToMany,
		supermodel.Attr("since", supermodel.String))
	// Each product is made by exactly one team: FK on Product.
	s.MustAddEdge("MAKES", false, "Team", "Product", supermodel.ZeroToMany, supermodel.ExactlyOne)
	// An intensional result to materialize.
	s.MustAddEdge("WORKS_ON", true, "Worker", "Product", supermodel.ZeroToMany, supermodel.ZeroToMany)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadRelationalBothFKDirections(t *testing.T) {
	s := fkSchema(t)
	d, err := NewDictionary(s)
	if err != nil {
		t.Fatal(err)
	}
	str := value.Str
	ri := &RelationalInstance{Tables: map[string][]Row{
		"Worker": {
			// FK columns follow the DDL emitter naming: <fkname>_<idfield>.
			{"badge": str("w1"), "assigned_to_teamId": str("t1"), "since": str("2020-01-01")},
			{"badge": str("w2")}, // optional participation: no FK columns
		},
		"Team": {
			{"teamId": str("t1")},
		},
		"Product": {
			{"sku": str("p1"), "makes_teamId": str("t1")},
		},
	}}
	loaded, err := d.LoadRelational(ri, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Entities) != 4 {
		t.Fatalf("entities = %d", len(loaded.Entities))
	}
	if len(loaded.Edges) != 2 {
		t.Fatalf("edges = %d, want ASSIGNED_TO + MAKES", len(loaded.Edges))
	}

	// The views expose the edges with the schema's orientation: ASSIGNED_TO
	// Worker->Team and MAKES Team->Product, regardless of which relation
	// held the FK.
	cat := CatalogFromSchema(s)
	db, err := loaded.InputViews(cat)
	if err != nil {
		t.Fatal(err)
	}
	typeOf := func(ioid int64) string { return loaded.Entity(pg.OID(ioid)).Type }
	for _, f := range db.Facts("ASSIGNED_TO") {
		if typeOf(f[1].I) != "Worker" || typeOf(f[2].I) != "Team" {
			t.Errorf("ASSIGNED_TO orientation wrong: %s -> %s", typeOf(f[1].I), typeOf(f[2].I))
		}
	}
	for _, f := range db.Facts("MAKES") {
		if typeOf(f[1].I) != "Team" || typeOf(f[2].I) != "Product" {
			t.Errorf("MAKES orientation wrong: %s -> %s", typeOf(f[1].I), typeOf(f[2].I))
		}
	}

	// The edge attribute survived on the FK-shaped edge.
	found := false
	for _, f := range db.Facts("ASSIGNED_TO") {
		for _, v := range f[3:] {
			if v.K == value.String && v.S == "2020-01-01" {
				found = true
			}
		}
	}
	if !found {
		t.Error("ASSIGNED_TO 'since' attribute lost in loading")
	}

	// End to end: materialize an intensional join through both edges.
	sigma := metalog.MustParse(`
		(w: Worker) [: ASSIGNED_TO] (t: Team) [: MAKES] (p: Product)
			-> (w) [e: WORKS_ON] (p).
	`)
	res, err := Materialize(d, RelationalSource{Inst: ri}, sigma, 4, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Derived.NewEdges) != 1 {
		t.Errorf("WORKS_ON edges = %d, want 1 (w1 only; w2 has no team)", len(res.Derived.NewEdges))
	}
}
