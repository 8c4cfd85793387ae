// Model independence end to end (the central promise of the paper): the
// same intensional component Σ, written once in MetaLog against the
// super-schema, materializes over a *relational* deployment of the Company
// KG — rows of the Figure 8 table-per-class schema — and the enriched
// instance exports as a property graph. No rule was rewritten for either
// model: Algorithm 2 lifts the data into the instance super-constructs,
// reasons at super-model level, and flushes back.
//
//	go run ./examples/modelindependence
package main

import (
	"fmt"
	"log"

	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

func main() {
	schema := supermodel.CompanyKG()
	dict, err := instance.NewDictionary(schema)
	if err != nil {
		log.Fatal(err)
	}

	// A relational deployment: table-per-class rows (each business appears
	// in Person, LegalPerson and Business, joined on fiscalCode) and an OWNS
	// junction table with FK columns — exactly what the Figure 8 DDL stores.
	str, flt := value.Str, value.FloatV
	tables := map[string][]instance.Row{}
	companies := []struct {
		code, name string
	}{
		{"IT0001", "Alfa Holding"},
		{"IT0002", "Beta Industrie"},
		{"IT0003", "Gamma Logistica"},
		{"IT0004", "Delta Retail"},
		{"IT0005", "Epsilon Energia"},
	}
	for _, c := range companies {
		tables["Person"] = append(tables["Person"], instance.Row{"fiscalCode": str(c.code)})
		tables["LegalPerson"] = append(tables["LegalPerson"], instance.Row{
			"fiscalCode": str(c.code), "businessName": str(c.name), "legalNature": str("spa"),
		})
		tables["Business"] = append(tables["Business"], instance.Row{
			"fiscalCode": str(c.code), "shareholdingCapital": flt(1_000_000),
		})
	}
	owns := func(x, y string, pct float64) instance.Row {
		return instance.Row{
			"fk_owns_src_fiscalCode": str(x),
			"fk_owns_dst_fiscalCode": str(y),
			"percentage":             flt(pct),
		}
	}
	tables["OWNS"] = []instance.Row{
		owns("IT0001", "IT0002", 0.70), // Alfa majority-owns Beta
		owns("IT0001", "IT0003", 0.35), // ... and jointly with Beta ...
		owns("IT0002", "IT0003", 0.30), // ... controls Gamma
		owns("IT0003", "IT0004", 0.60), // Gamma majority-owns Delta
		owns("IT0004", "IT0005", 0.10), // Delta holds a sliver of Epsilon
	}

	// Σ: company control, Example 4.1, written once at super-model level.
	sigma := metalog.MustParse(`
		(x: Business) -> (x) [c: CONTROLS] (x).
		(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
			v = sum(w, <z>), v > 0.5
			-> (x) [c: CONTROLS] (y).
	`)

	res, err := instance.Materialize(dict,
		instance.RelationalSource{Inst: &instance.RelationalInstance{Tables: tables}},
		sigma, 555, vadalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance super-constructs: %d entities, %d edges (ground + derived)\n",
		len(res.Loaded.Entities), len(res.Loaded.Edges))
	fmt.Printf("derived %d CONTROLS edges (load %v, reason %v, flush %v)\n\n",
		len(res.Derived.NewEdges), res.LoadDuration.Round(1000), res.ReasonDuration.Round(1000), res.FlushDuration.Round(1000))

	// Export the enriched instance as a property graph: the full
	// relational -> super-model -> reasoning -> property-graph circle.
	out := res.ExportPG()
	name := map[string]string{}
	for _, c := range companies {
		name[c.code] = c.name
	}
	codeOf := map[int64]string{}
	for _, n := range out.NodesByLabel("Business") {
		codeOf[int64(n.ID)] = n.Props["fiscalCode"].S
	}
	fmt.Println("control structure (exported property graph):")
	for _, e := range out.EdgesByLabel("CONTROLS") {
		from, to := codeOf[int64(e.From)], codeOf[int64(e.To)]
		if from == to {
			continue
		}
		fmt.Printf("  %-16s controls %s\n", name[from], name[to])
	}
}
