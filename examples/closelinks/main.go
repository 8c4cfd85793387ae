// Close links (Section 2.1 of the paper): the ECB Guideline 2018/876 notion
// of financial conflict of interest — two entities are close-linked when one
// holds at least 20% of the other's capital, directly or indirectly, or when
// a common third party holds at least 20% of both. The direct part runs as a
// declarative MetaLog program; the indirect part computes integrated
// ownership (the total share owned through the whole graph) natively and
// shows the links that only the indirect computation finds.
//
//	go run ./examples/closelinks
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/vadalog"
)

func main() {
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(1500, 31))
	g := topo.Shareholding()
	own := finance.BuildOwnership(topo)
	fmt.Printf("shareholding graph: %d nodes, %d OWNS edges\n\n", g.NumNodes(), g.NumEdges())

	// Direct close links via MetaLog (threshold on single edges and common
	// direct parents).
	prog, err := metalog.Parse(finance.CloseLinksDirectProgram())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if _, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		log.Fatal(err)
	}
	directPairs := map[[2]int64]bool{}
	for _, e := range g.EdgesByLabel("CLOSE_LINK") {
		a, b := int64(e.From), int64(e.To)
		if a > b {
			a, b = b, a
		}
		directPairs[[2]int64{a, b}] = true
	}
	fmt.Printf("direct close links (MetaLog):      %6d undirected pairs in %v\n",
		len(directPairs), time.Since(start).Round(time.Millisecond))

	// Full close links over integrated ownership.
	start = time.Now()
	links := finance.CloseLinks(own, own.Entities, 0.2, 1e-9, 100)
	fmt.Printf("full close links (integrated own): %6d undirected pairs in %v\n",
		len(links), time.Since(start).Round(time.Millisecond))

	// How much the indirect computation adds: integrated ownership follows
	// chains like a -> b -> c where each step is below the threshold on its
	// own path product but the accumulated share still crosses 20%.
	fmt.Printf("\nindirect-only links: %d (the conflict-of-interest cases a direct check misses)\n",
		len(links)-len(directPairs))

	// A concrete integrated-ownership vector for the busiest investor.
	busiest, best := 0, 0
	for e, stakes := range own.Out {
		if len(stakes) > best {
			busiest, best = e, len(stakes)
		}
	}
	io := finance.IntegratedOwnership(own, busiest, 1e-9, 100)
	over := 0
	for _, v := range io {
		if v >= 0.2 {
			over++
		}
	}
	fmt.Printf("\nbusiest investor (entity %d, %d direct stakes): integrated ownership reaches %d companies, %d above the 20%% threshold\n",
		busiest, best, len(io), over)
}
