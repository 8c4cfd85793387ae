// Quickstart: design a small Knowledge Graph in GSL, write an intensional
// component in MetaLog, deploy the design to SQL, and materialize the derived
// knowledge over a data instance — the full KGModel methodology in under 100
// lines, one package per step: gsl (design), models (deploy), instance
// (materialize).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/gsl"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

func main() {
	// 1. Design the extensional component in the textual GSL dialect
	//    (Section 3 of the paper; kgse renders the same design visually).
	schema, err := gsl.Parse(`schema SupplyChain oid 42 {
		node Company {
			vat: string @id @unique
			country: string
		}
		node Product {
			sku: string @id
			price: float @range(0, 1000000)
		}
		edge SUPPLIES (Company 0..N -> 0..N Company) {
			volume: float
		}
		edge MAKES (Company 0..N -> 1..1 Product)
		intensional edge DEPENDS_ON (Company 0..N -> 0..N Company)
	}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== GSL design ==")
	fmt.Println(gsl.RenderText(schema))

	// 2. Write the intensional component: DEPENDS_ON is the transitive
	//    closure of supply relationships (a MetaLog path pattern).
	dependencies, err := metalog.Parse(`
		(x: Company) ([: SUPPLIES])+ (y: Company) -> (x) [d: DEPENDS_ON] (y).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Deploy: SSST translates the super-schema into the relational model
	//    and emits DDL (Section 5).
	rel, err := models.TranslateSchema(schema, "relational", "")
	if err != nil {
		log.Fatal(err)
	}
	view, err := models.ReadRelationalSchema(rel.Dict, rel.Mapping.TargetOID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Relational deployment (SSST + DDL emitter) ==")
	fmt.Println(models.EmitSQL(view))

	// 4. Build a data instance and materialize (Algorithm 2, Section 6).
	data := pg.New()
	company := func(vat, country string) pg.OID {
		return data.AddNode([]string{"Company"}, pg.Props{
			"vat": value.Str(vat), "country": value.Str(country),
		}).ID
	}
	acme := company("IT001", "IT")
	bolt := company("DE002", "DE")
	chip := company("TW003", "TW")
	data.MustAddEdge(bolt, acme, "SUPPLIES", pg.Props{"volume": value.FloatV(100)})
	data.MustAddEdge(chip, bolt, "SUPPLIES", pg.Props{"volume": value.FloatV(60)})

	//    The component is checked against the design first: a label or
	//    property the schema does not declare is refused.
	comps := []instance.Component{{Name: "dependencies", Sigma: dependencies}}
	steps, err := instance.MaterializeStaged(schema, instance.PGSource{Data: data}, comps, 1, vadalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Materialization: %d DEPENDS_ON edges derived ==\n", len(steps[0].Derived.NewEdges))
	names := map[pg.OID]string{}
	for _, n := range data.NodesByLabel("Company") {
		names[n.ID] = n.Props["vat"].S
	}
	for _, e := range data.EdgesByLabel("DEPENDS_ON") {
		fmt.Printf("  %s depends on %s\n", names[e.To], names[e.From])
	}
}
