// Command kgvalidate enforces a translated schema against a property-graph
// data instance — the "ad-hoc methodology" for schema validation on
// schema-less graph systems that Section 5 of the paper refers to.
//
// Usage:
//
//	kgvalidate -in data.json -companykg
//	kgvalidate -in data.json -schema design.gsl [-strategy child-edges]
//
// Exit status 1 when violations are found.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/models"
)

func main() {
	in := flag.String("in", "", "property-graph data instance (JSON or snapshot)")
	schemaFile := flag.String("schema", "", "GSL design file")
	companyKG := flag.Bool("companykg", false, "validate against the built-in Company KG design")
	strategy := flag.String("strategy", "multi-label", "PG translation strategy")
	max := flag.Int("max", 25, "maximum violations to print (0 = all)")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "kgvalidate: need -in <data.json>")
		os.Exit(2)
	}
	schema, err := cli.LoadSchema(*schemaFile, *companyKG)
	if err != nil {
		fatal(err)
	}
	if schema == nil {
		fmt.Fprintln(os.Stderr, "kgvalidate: need -schema <design.gsl> or -companykg")
		os.Exit(2)
	}

	// Validation is read-only; both passes share one frozen snapshot.
	fz, err := cli.OpenGraph(*in)
	if err != nil {
		fatal(err)
	}
	// SSST translates the design into the PG model (Algorithm 1); the view
	// is read off its target schema.
	res, err := models.TranslateSchema(schema, "pg", *strategy)
	if err != nil {
		fatal(err)
	}
	view, err := models.ReadPGSchema(res.Dict, res.Mapping.TargetOID)
	if err != nil {
		fatal(err)
	}
	violations := models.ValidateInstance(fz, view)
	violations = append(violations, models.ValidateModifiers(fz, schema)...)
	if len(violations) == 0 {
		fmt.Printf("kgvalidate: %d nodes, %d edges — instance conforms to schema %s\n",
			fz.NumNodes(), fz.NumEdges(), schema.Name)
		return
	}
	fmt.Printf("kgvalidate: %d violations\n", len(violations))
	for i, v := range violations {
		if *max > 0 && i >= *max {
			fmt.Printf("  ... and %d more\n", len(violations)-i)
			break
		}
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kgvalidate:", err)
	os.Exit(1)
}
