// Command kgquery evaluates MetaLog pattern queries against a property
// graph — the UC2RPQ-style navigational querying the paper's language
// desiderata call for (Section 1).
//
// Usage:
//
//	kgquery -in kg.json '(x: Business; businessName: n) [: CONTROLS] (y: Business; businessName: m), x != y'
//	kgquery -in kg.json -limit 10 '(x: Business) ([: OWNS])+ (y: Business)'
//	kgquery -in kg.json -explain '(x: Business; businessName: "Acme") [: OWNS] (y: Business)'
//
// With -explain the cost-based plan (statistics catalog, join order, demand
// rewrites — DESIGN.md §15) is printed to stderr as JSON before the rows, and
// the query executes the planned program.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cli"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/vadalog"
)

func main() {
	in := flag.String("in", "", "property graph (JSON or snapshot)")
	limit := flag.Int("limit", 0, "maximum rows to print (0 = all)")
	explain := flag.Bool("explain", false, "print the cost-based plan to stderr and run the planned program")
	flag.Parse()
	if *in == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "kgquery: usage: kgquery -in <graph.json|graph.snap> '<pattern>'")
		os.Exit(2)
	}
	// Queries only read the graph: extract facts from a frozen snapshot.
	g, err := cli.OpenGraph(*in)
	if err != nil {
		fatal(err)
	}
	var rows []metalog.QueryRow
	if *explain {
		rows, err = explainedQuery(g, flag.Arg(0))
	} else {
		rows, err = metalog.Query(g, flag.Arg(0), vadalog.Options{})
	}
	if err != nil {
		fatal(err)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "kgquery: no matches")
		return
	}
	// Stable column order from the first row's keys union.
	colSet := map[string]bool{}
	for _, r := range rows {
		for k := range r {
			colSet[k] = true
		}
	}
	cols := make([]string, 0, len(colSet))
	for k := range colSet {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	fmt.Println(strings.Join(cols, "\t"))
	for i, r := range rows {
		if *limit > 0 && i >= *limit {
			fmt.Fprintf(os.Stderr, "kgquery: ... %d more rows\n", len(rows)-i)
			break
		}
		cells := make([]string, len(cols))
		for ci, c := range cols {
			if v, ok := r[c]; ok {
				cells[ci] = v.String()
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Fprintf(os.Stderr, "kgquery: %d rows\n", len(rows))
}

// explainedQuery plans the pattern against the graph's statistics catalog,
// prints the plan, and runs the prepared (planned) query.
func explainedQuery(frozen *pg.Frozen, pattern string) ([]metalog.QueryRow, error) {
	cat := metalog.FromGraph(frozen)
	st := metalog.ComputePlanStats(frozen, cat)
	prep, err := metalog.PrepareQuery(cat, pattern, st)
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(prep.Plan(), "", "  ")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "kgquery: plan (planned=%v, estimated rows=%.3f):\n%s\n",
		prep.Planned(), prep.EstimatedRows(), out)
	return prep.QueryView(context.Background(), frozen, vadalog.Options{})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kgquery:", err)
	os.Exit(1)
}
