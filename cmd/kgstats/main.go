// Command kgstats computes the Section 2.1 graph statistics for a property
// graph: component structure, degree statistics, clustering coefficient and
// the power-law fit.
//
// Usage:
//
//	kgstats -in graph.json
//	kgstats -in graph.snap          (what kggen -snap writes; mapped, not parsed)
//	kggen -companies 10000 | kgstats
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/graphstats"
)

func main() {
	in := flag.String("in", "", "property graph, JSON or snapshot (default: stdin)")
	flag.Parse()

	if *in == "" {
		*in = "-"
	}
	// The statistics tasks fan out across workers; a frozen snapshot gives
	// them CSR adjacency and lock-free concurrent reads.
	g, err := cli.OpenGraph(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Print(graphstats.Compute(g).Table())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kgstats:", err)
	os.Exit(1)
}
