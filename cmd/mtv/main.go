// Command mtv is the MetaLog-to-Vadalog translator (Section 2.2): it
// compiles MetaLog programs into the Vadalog programs the reasoner executes,
// printing them in the style of Example 4.4.
//
// Usage:
//
//	mtv -in program.metalog [-graph instance.json] [-analyze]
//	echo '(x: B) -> (x) [c: C] (x).' | mtv -analyze
//
// Without -graph, the catalog (label → property layout) is inferred from
// the program itself; with it, from the graph instance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/metalog"
	"repro/internal/vadalog"
)

func main() {
	in := flag.String("in", "", "MetaLog program (default: stdin)")
	graph := flag.String("graph", "", "property-graph instance (JSON or snapshot) to derive the catalog from")
	analyze := flag.Bool("analyze", false, "print the static analysis of the translated program")
	flag.Parse()

	var src []byte
	var err error
	if *in != "" {
		src, err = os.ReadFile(*in)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}
	prog, err := metalog.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	cat := metalog.NewCatalog()
	if *graph != "" {
		g, err := cli.OpenGraph(*graph)
		if err != nil {
			fatal(err)
		}
		cat = metalog.FromGraph(g)
	}
	tr, err := metalog.Translate(prog, cat)
	if err != nil {
		fatal(err)
	}
	fmt.Print(tr.Program.String())

	if *analyze {
		an, err := vadalog.Analyze(tr.Program)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\n%% analysis: strata=%d warded=%v piecewise-linear=%v\n",
			len(an.Strata), an.Warded, an.PiecewiseLinear)
		if len(an.AffectedPositions) > 0 {
			fmt.Fprintf(os.Stderr, "%% affected positions: %v\n", an.AffectedPositions)
		}
		for _, v := range an.Violations {
			fmt.Fprintf(os.Stderr, "%% wardedness violation: %s\n", v)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtv:", err)
	os.Exit(1)
}
