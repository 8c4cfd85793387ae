package overlay_test

// A compaction microbenchmark: the work behind one POST /compact at the
// serving benchmarks' scale. Unrecorded and ungated — for use while working
// on the write path; where it shows end to end is overlay.compact_s in the
// bench/ spine's serve-write workload.

import (
	"testing"

	"repro/internal/fingraph"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/value"
)

// BenchmarkCompact folds an overlay of 100 eight-op batches — added
// businesses and shares with their edges, property writes, a label gain and
// an edge removal on the base — over the company graph of 10,000 companies.
func BenchmarkCompact(b *testing.B) {
	base := fingraph.GenerateTopology(fingraph.DefaultConfig(10000, 1)).CompanyKG().Freeze()
	var persons, businesses []pg.OID
	base.ScanNodes(func(r *pg.NodeRow) bool {
		for _, l := range r.Labels {
			switch l {
			case "Person":
				persons = append(persons, r.ID)
			case "Business":
				businesses = append(businesses, r.ID)
			}
		}
		return true
	})
	edges := base.Columns().EdgeOIDs
	ov := overlay.New(base)
	for i := 0; i < 100; i++ {
		biz := overlay.Ref{ID: businesses[i*37%len(businesses)]}
		ops := []overlay.Op{
			{Kind: overlay.OpAddNode, Name: "b", Labels: []string{"Business"}, Props: pg.Props{"fiscalCode": value.Str("new")}},
			{Kind: overlay.OpAddNode, Name: "s", Labels: []string{"Share"}, Props: pg.Props{"percentage": value.FloatV(0.5)}},
			{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: persons[i*53%len(persons)]}, To: overlay.Ref{Name: "s"}, Label: "HOLDS"},
			{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: "s"}, To: overlay.Ref{Name: "b"}, Label: "BELONGS_TO"},
			{Kind: overlay.OpSetNodeProp, Node: biz, Key: "shareholdingCapital", Value: value.FloatV(float64(i))},
			{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{Name: "b"}, Key: "name", Value: value.Str("n")},
			{Kind: overlay.OpAddLabel, Node: biz, Label: "Listed"},
			{Kind: overlay.OpRemoveEdge, Edge: edges[i*97%len(edges)]},
		}
		if _, err := ov.Apply(ops); err != nil {
			b.Fatalf("batch %d: %v", i, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ov.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
