package pg_test

// Storage microbenchmarks of the mutable builder's list reads — label scans
// (NodesByLabel/EdgesByLabel) and adjacency walks (Out/In), which the schema
// dictionary readers use — and of Freeze. A frozen snapshot has no list
// reads: its readers scan the columns. Unrecorded and ungated — for use
// while working on the storage layer; where it shows end to end is
// metalog.extract_s and vadalog.fixpoint_s in the bench/ spine.

import (
	"testing"

	"repro/internal/pg"
	"repro/internal/value"
)

// benchGraph builds a deterministic two-label graph: n "Company" nodes and
// n "Person" nodes, with each person holding shares in 4 companies — the
// shape of the paper's ownership instances, small enough to stay in cache
// at the default size but large enough that per-call allocation dominates.
func benchGraph(n int) *pg.Graph {
	g := pg.New()
	companies := make([]pg.OID, n)
	persons := make([]pg.OID, n)
	for i := 0; i < n; i++ {
		c := g.AddNode([]string{"Company"}, pg.Props{"name": value.Str("c")})
		companies[i] = c.ID
	}
	for i := 0; i < n; i++ {
		p := g.AddNode([]string{"Person"}, pg.Props{"name": value.Str("p")})
		persons[i] = p.ID
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			to := companies[(i*7+k*13)%n]
			g.MustAddEdge(persons[i], to, "Owns", pg.Props{"w": value.FloatV(0.25)})
		}
	}
	return g
}

const benchN = 4096

func benchLabelScan(b *testing.B, v *pg.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	var sum pg.OID
	for i := 0; i < b.N; i++ {
		for _, n := range v.NodesByLabel("Company") {
			sum += n.ID
		}
		for _, e := range v.EdgesByLabel("Owns") {
			sum += e.ID
		}
	}
	if sum == 0 {
		b.Fatal("empty scan")
	}
}

func benchAdjacency(b *testing.B, v *pg.Graph, ids []pg.OID) {
	b.ReportAllocs()
	b.ResetTimer()
	var sum pg.OID
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			for _, e := range v.Out(id) {
				sum += e.To
			}
			for _, e := range v.In(id) {
				sum += e.From
			}
		}
	}
	if sum == 0 {
		b.Fatal("empty walk")
	}
}

func BenchmarkStorageLabelScan(b *testing.B) {
	g := benchGraph(benchN)
	b.Run("mutable", func(b *testing.B) { benchLabelScan(b, g) })
}

func BenchmarkStorageAdjacency(b *testing.B) {
	g := benchGraph(benchN)
	ids := make([]pg.OID, 0, 2*benchN)
	for _, n := range g.Nodes() {
		ids = append(ids, n.ID)
	}
	b.Run("mutable", func(b *testing.B) { benchAdjacency(b, g, ids) })
}

func BenchmarkStorageFreeze(b *testing.B) {
	g := benchGraph(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := g.Freeze(); f.NumNodes() == 0 {
			b.Fatal("empty freeze")
		}
	}
}
