// Streaming supervision: new ownership stakes arrive from the register feed
// and the control relation is maintained incrementally — the step beyond the
// batch accumulation Section 6 of the paper describes. Each event is one
// Maintainer batch that resumes the saturated fixpoint in milliseconds
// instead of recomputing it, and analysts watch for the moment a takeover
// crosses the 50% threshold (the COVID-19 takeover-monitoring scenario of the
// paper's companion work). The run fails if any event recomputes, or if the
// final control relation differs from a fresh run over the same facts.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/vadalog"
	"repro/internal/value"
)

func main() {
	// A 5000-company register as the standing state.
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(5000, 12))
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

	prog := vadalog.MustParse(finance.ControlVadalog())
	fresh := db.Clone()
	start := time.Now()
	m, err := vadalog.NewMaintainer(prog, db, vadalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	apply := func(d vadalog.Delta) vadalog.DeltaStats {
		for pred, facts := range d.Add {
			for _, f := range facts {
				fresh.MustAddFact(pred, f...)
			}
		}
		stats, err := m.Apply(d)
		if err != nil {
			log.Fatal(err)
		}
		if stats.Recomputed {
			log.Fatal("an insertion-only batch recomputed the fixpoint")
		}
		return stats
	}
	baseline := m.DB().Count("controls")
	fmt.Printf("initial saturation: %d control facts over %d entities in %v\n\n",
		baseline, len(own.Entities), time.Since(start).Round(time.Millisecond))

	// The feed: four newly registered companies enter the graph — a raider,
	// two intermediaries and a target — then the raider quietly accumulates
	// stakes in the target through the intermediaries until the final
	// purchase tips the joint holding over 50%.
	raider, intermediaryA, intermediaryB, target := int64(9_000_000), int64(9_000_001), int64(9_000_002), int64(9_000_003)
	newcomers := vadalog.NewDelta()
	for _, c := range []int64{raider, intermediaryA, intermediaryB, target} {
		newcomers.AddFact("company", value.IntV(c))
	}
	apply(newcomers)
	events := []struct {
		desc string
		x, y int64
		pct  float64
	}{
		{"raider takes 70% of intermediary A", raider, intermediaryA, 0.70},
		{"raider takes 65% of intermediary B", raider, intermediaryB, 0.65},
		{"intermediary A buys 30% of the target", intermediaryA, target, 0.30},
		{"intermediary B buys 15% of the target", intermediaryB, target, 0.15},
		{"raider buys 10% of the target directly", raider, target, 0.10},
	}

	controls := func(x, y int64) bool {
		for _, f := range m.DB().Facts("controls") {
			if f[0].I == x && f[1].I == y && f[0].K == value.Int {
				return true
			}
		}
		return false
	}

	for i, ev := range events {
		d := vadalog.NewDelta()
		d.AddFact("owns", value.IntV(ev.x), value.IntV(ev.y), value.FloatV(ev.pct))
		t0 := time.Now()
		// Added also counts the asserted stake.
		derived := apply(d).Added - 1
		alert := ""
		if controls(raider, target) {
			alert = "  << TAKEOVER: raider now controls the target"
		}
		fmt.Printf("event %d: %-42s propagated in %-10v (+%d facts)%s\n",
			i+1, ev.desc, time.Since(t0).Round(time.Microsecond), derived, alert)
	}

	if !controls(raider, target) {
		log.Fatal("expected the takeover to complete")
	}
	if _, err := vadalog.RunInPlace(prog, fresh, vadalog.Options{}); err != nil {
		log.Fatal(err)
	}
	if fresh.Dump() != m.DB().Dump() {
		log.Fatal("the maintained control relation differs from a fresh run")
	}
	fmt.Printf("\nfinal control facts: %d (%d derived since saturation)\n",
		m.DB().Count("controls"), m.DB().Count("controls")-baseline)
	fmt.Println("the joint holding 30% + 15% + 10% = 55% crossed the majority threshold —")
	fmt.Println("the monotonic sum accumulated across propagations, no recomputation needed")
}
