// The Bank of Italy Company KG walk-through (Sections 3.3, 5 and 6 of the
// paper): the Figure 4 design, its translations into the property-graph and
// relational models (Figures 6 and 8), the enforceable deployment artifacts,
// and the materialization of the intensional components over a synthetic
// register extract.
//
//	go run ./examples/companykg
package main

import (
	"fmt"
	"log"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/gsl"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

func main() {
	// The Figure 4 super-schema, built with the design decisions narrated in
	// Section 3.3 (HOLDS/BELONGS_TO decoupling, total/disjoint person
	// generalization, intensional OWNS/CONTROLS/Family constructs, ...).
	schema := supermodel.CompanyKG()
	fmt.Println("== Figure 4: the Company KG design ==")
	fmt.Println(gsl.RenderText(schema))

	// Figure 6: the property-graph translation with multi-label tagging.
	pgRes, err := models.TranslateSchema(schema, "pg", "multi-label")
	if err != nil {
		log.Fatal(err)
	}
	pgView, err := models.ReadPGSchema(pgRes.Dict, pgRes.Mapping.TargetOID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Figure 6: PG schema — %d node types, %d relationship types ==\n", len(pgView.Nodes), len(pgView.Rels))
	for _, n := range pgView.Nodes {
		fmt.Printf("  %v\n", n.Labels)
	}

	// Figure 8: the relational translation (table-per-class), with DDL.
	relRes, err := models.TranslateSchema(schema, "relational", "")
	if err != nil {
		log.Fatal(err)
	}
	relView, err := models.ReadRelationalSchema(relRes.Dict, relRes.Mapping.TargetOID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Figure 8: relational schema as DDL (excerpt) ==")
	printFirstLines(models.EmitSQL(relView), 24)

	// RDF-S for triplestore targets — generalizations survive natively.
	fmt.Println("== RDF-S deployment (excerpt) ==")
	printFirstLines(models.EmitRDFS(schema), 8)

	// The intensional components of Section 2.1, in dependency order:
	// ownership compaction feeds control, which feeds the families.
	comps := []instance.Component{
		{Name: "ownership", Sigma: metalog.MustParse(finance.OwnershipProgram())},
		{Name: "control", Sigma: metalog.MustParse(finance.ControlProgram())},
		{Name: "family", Sigma: metalog.MustParse(finance.FamilyProgram())},
	}

	// A synthetic register extract standing in for the Chambers of Commerce
	// data, and the full Algorithm 2 materialization.
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(300, 2022))
	data := topo.CompanyKG()
	fmt.Printf("== Register extract: %d nodes, %d edges ==\n", data.NumNodes(), data.NumEdges())

	steps, err := instance.MaterializeStaged(schema, instance.PGSource{Data: data}, comps, 1, vadalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for i, step := range steps {
		fmt.Printf("  %-10s load=%-11v reason=%-11v flush=%-11v -> %d entities, %d edges, %d properties\n",
			comps[i].Name, step.LoadDuration.Round(1000), step.ReasonDuration.Round(1000), step.FlushDuration.Round(1000),
			len(step.Derived.NewEntities), len(step.Derived.NewEdges), step.Derived.UpdatedProps)
	}
	fmt.Printf("== Materialized intensional component ==\n")
	for _, label := range []string{"OWNS", "CONTROLS", "BELONGS_TO_FAMILY", "IS_RELATED_TO", "FAMILY_OWNS"} {
		fmt.Printf("  %-18s %d edges\n", label, len(data.EdgesByLabel(label)))
	}
	fmt.Printf("  %-18s %d nodes\n", "Family", len(data.NodesByLabel("Family")))
}

func printFirstLines(s string, n int) {
	lines := 0
	for i := 0; i < len(s); i++ {
		fmt.Print(string(s[i]))
		if s[i] == '\n' {
			lines++
			if lines >= n {
				fmt.Println("  ...")
				return
			}
		}
	}
}
