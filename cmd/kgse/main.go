// Command kgse is the Knowledge Graph Schema Environment (Section 2.2): it
// parses, validates and renders GSL designs, and stores them into graph
// dictionaries.
//
// Usage:
//
//	kgse -in design.gsl -render text|dot|gsl|rdfs|csv
//	kgse -render metamodel            # the Figure 2 dictionary
//	kgse -companykg -render dot       # the built-in Figure 4 design
//	kgse -in design.gsl -dict dictionary.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/gsl"
	"repro/internal/models"
	"repro/internal/pg"
	"repro/internal/supermodel"
)

func main() {
	in := flag.String("in", "", "GSL design file to load")
	render := flag.String("render", "text", "output: text, dot, gsl, rdfs, csv, metamodel, supermodel")
	companyKG := flag.Bool("companykg", false, "use the built-in Company KG design of Figure 4")
	dict := flag.String("dict", "", "store the design into this graph dictionary (JSON)")
	list := flag.String("list", "", "list the schemas stored in this graph dictionary (JSON or snapshot) and exit")
	flag.Parse()

	if *list != "" {
		g, err := cli.OpenGraph(*list)
		if err != nil {
			fatal(err)
		}
		for _, info := range supermodel.ListSchemas(g) {
			fmt.Printf("schemaOID=%d: %d nodes, %d edges, %d generalizations\n",
				info.OID, info.Nodes, info.Edges, info.Generalizations)
		}
		return
	}

	switch *render {
	case "metamodel":
		g := supermodel.MetaModelDictionary()
		if err := pg.WriteJSON(os.Stdout, g); err != nil {
			fatal(err)
		}
		return
	case "supermodel":
		g := supermodel.SuperModelDictionary()
		if err := pg.WriteJSON(os.Stdout, g); err != nil {
			fatal(err)
		}
		return
	}

	schema, err := cli.LoadSchema(*in, *companyKG)
	if err != nil {
		fatal(err)
	}
	if schema == nil {
		fmt.Fprintln(os.Stderr, "kgse: need -in <design.gsl> or -companykg")
		flag.Usage()
		os.Exit(2)
	}
	if err := schema.Validate(); err != nil {
		fatal(err)
	}

	if *dict != "" {
		g := supermodel.NewDictionary()
		if err := supermodel.ToDictionary(schema, g); err != nil {
			fatal(err)
		}
		f, err := os.Create(*dict)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pg.WriteJSON(f, g); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "kgse: stored %s into %s\n", schema.Stats(), *dict)
	}

	switch *render {
	case "text":
		fmt.Print(gsl.RenderText(schema))
	case "dot":
		fmt.Print(gsl.RenderDOT(schema))
	case "gsl":
		fmt.Print(gsl.Serialize(schema))
	case "rdfs":
		fmt.Print(models.EmitRDFS(schema))
	case "csv":
		fmt.Print(models.EmitCSVLayout(schema))
	default:
		fatal(fmt.Errorf("unknown -render %q", *render))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kgse:", err)
	os.Exit(1)
}
