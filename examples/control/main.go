// Company control (Examples 4.1 and 4.2 of the paper): the same intensional
// component expressed three ways — MetaLog over the property graph, plain
// Vadalog over extracted relations, and a native Go worklist — all agreeing
// on a synthetic scale-free shareholding network, including the joint-control
// cases a plain transitive closure would miss.
//
//	go run ./examples/control
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

func main() {
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(2000, 7))
	g := topo.Shareholding()
	fmt.Printf("shareholding graph: %d nodes, %d OWNS edges\n\n", g.NumNodes(), g.NumEdges())

	// 1. MetaLog (Example 4.1), through MTV and the Vadalog engine, with the
	//    derived CONTROLS edges materialized back into the graph.
	prog, err := metalog.Parse(finance.ControlEntityProgram())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MetaLog program (Example 4.1):")
	fmt.Print(prog.String())
	res, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	metalogPairs := countNonSelf(g)
	fmt.Printf("\nMetaLog pipeline: %d control edges (non-self) in %v (load %v, reason %v, flush %v)\n",
		metalogPairs, res.LoadDuration+res.ReasonDuration+res.FlushDuration,
		res.LoadDuration.Round(time.Microsecond), res.ReasonDuration.Round(time.Microsecond), res.FlushDuration.Round(time.Microsecond))

	// 2. Plain Vadalog (Example 4.2) over company/owns relations.
	own := finance.BuildOwnership(topo)
	db := vadalog.NewDatabase()
	for _, e := range own.Entities {
		db.MustAddFact("company", value.IntV(int64(e)))
	}
	for owner, stakes := range own.Out {
		for _, st := range stakes {
			db.MustAddFact("owns", value.IntV(int64(owner)), value.IntV(int64(st.Company)), value.FloatV(st.Pct))
		}
	}
	start := time.Now()
	vres, err := vadalog.RunInPlace(vadalog.MustParse(finance.ControlVadalog()), db, vadalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	nonSelf := 0
	for _, f := range vres.Output("controls") {
		if !value.Equal(f[0], f[1]) {
			nonSelf++
		}
	}
	fmt.Printf("Vadalog (Example 4.2): %d control pairs (non-self) in %v\n", nonSelf, time.Since(start).Round(time.Microsecond))

	// 3. Native worklist baseline.
	start = time.Now()
	pairs := finance.NativeControl(own, false)
	fmt.Printf("native baseline:       %d control pairs (non-self) in %v\n", len(pairs), time.Since(start).Round(time.Microsecond))

	// Company groups from the control relation (Section 2.1: "virtual
	// concepts denoting a center of interest").
	groups := finance.Groups(pairs)
	largest := finance.Group{}
	for _, grp := range groups {
		if len(grp.Controlled) > len(largest.Controlled) {
			largest = grp
		}
	}
	fmt.Printf("\ncompany groups: %d; largest controls %d companies (ultimate controller: entity %d)\n",
		len(groups), len(largest.Controlled), largest.Ultimate)
}

func countNonSelf(g *pg.Graph) int {
	n := 0
	for _, e := range g.EdgesByLabel("CONTROLS") {
		if e.From != e.To {
			n++
		}
	}
	return n
}
