// Command ssst is the Super-Schema to Schema Translator (Algorithm 1): it
// casts a super-schema into a target model by running the Eliminate/Copy
// MetaLog mappings over the graph dictionary, and emits the enforceable
// schema artifacts — the Figure 6 / Figure 8 outputs.
//
// Usage:
//
//	ssst -companykg -target relational              # Figure 8 + DDL
//	ssst -companykg -target pg -strategy multi-label # Figure 6 + constraints
//	ssst -in design.gsl -target pg -strategy child-edges
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/models"
)

func main() {
	in := flag.String("in", "", "GSL design file")
	companyKG := flag.Bool("companykg", false, "use the built-in Company KG design of Figure 4")
	target := flag.String("target", "pg", "target model: pg or relational")
	strategy := flag.String("strategy", "", "implementation strategy (pg: multi-label, child-edges)")
	emit := flag.Bool("emit", true, "emit the enforceable artifact (DDL / constraints)")
	dot := flag.Bool("dot", false, "render the translated schema as Graphviz DOT (the Figure 6 / Figure 8 diagrams) instead of the artifact")
	stats := flag.Bool("stats", false, "print translation statistics")
	flag.Parse()

	schema, err := cli.LoadSchema(*in, *companyKG)
	if err != nil {
		fatal(err)
	}
	if schema == nil {
		fmt.Fprintln(os.Stderr, "ssst: need -in <design.gsl> or -companykg")
		os.Exit(2)
	}

	res, err := models.TranslateSchema(schema, *target, *strategy)
	if err != nil {
		fatal(err)
	}
	m := res.Mapping
	if *stats {
		fmt.Fprintf(os.Stderr, "ssst: eliminate derived %d facts in %v; copy derived %d facts in %v\n",
			res.EliminateRun.FactsDerived, res.EliminateRun.Duration,
			res.CopyRun.FactsDerived, res.CopyRun.Duration)
	}

	switch *target {
	case "pg":
		view, err := models.ReadPGSchema(res.Dict, m.TargetOID)
		if err != nil {
			fatal(err)
		}
		if *dot {
			fmt.Print(models.RenderPGViewDOT(view))
			return
		}
		fmt.Printf("// %d node types, %d relationship types (strategy %s)\n", len(view.Nodes), len(view.Rels), m.Strategy)
		for _, n := range view.Nodes {
			props := make([]string, len(n.Properties))
			for i, p := range n.Properties {
				props[i] = p.Name
			}
			fmt.Printf("// (:%s) {%s}\n", strings.Join(n.Labels, ":"), strings.Join(props, ", "))
		}
		if *emit {
			fmt.Print(models.EmitPGConstraints(view))
		}
	case "relational":
		view, err := models.ReadRelationalSchema(res.Dict, m.TargetOID)
		if err != nil {
			fatal(err)
		}
		if *dot {
			fmt.Print(models.RenderRelationalViewDOT(view))
			return
		}
		fmt.Printf("-- %d relations (strategy %s)\n", len(view.Relations), m.Strategy)
		if *emit {
			fmt.Print(models.EmitSQL(view))
		}
	default:
		fatal(fmt.Errorf("unknown target %q", *target))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssst:", err)
	os.Exit(1)
}
