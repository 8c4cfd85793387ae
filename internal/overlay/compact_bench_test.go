package overlay_test

// Write-path microbenchmarks at the serving benchmarks' scale: the work
// behind one POST /compact and the overlay's share of one POST /mutate.
// Ungated — for use while working on the write path; where they show end
// to end is overlay.compact_s and op_ms in the bench/ spine's serve-write
// workload.

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
	base, persons, businesses := companyBase()
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

// companyBase freezes the company graph of 10,000 companies and lists its
// persons and businesses.
func companyBase() (base *pg.Frozen, persons, businesses []pg.OID) {
	base = fingraph.GenerateTopology(fingraph.DefaultConfig(10000, 1)).CompanyKG().Freeze()
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
	return base, persons, businesses
}

// BenchmarkCloneApply is the overlay's share of one /mutate: the Clone of
// an overlay 50 batches past its last compaction and the Apply of one batch
// shaped like serve-write's — 4 add_edge between existing entities, 2
// remove_edge of base edges, 1 set_node_prop and 1 add_node.
func BenchmarkCloneApply(b *testing.B) {
	base, persons, businesses := companyBase()
	edges := base.Columns().EdgeOIDs
	batch := func(i int) []overlay.Op {
		ops := make([]overlay.Op, 0, 8)
		for j := i * 4; j < i*4+4; j++ {
			ops = append(ops, overlay.Op{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: persons[j*53%len(persons)]},
				To: overlay.Ref{ID: businesses[j*37%len(businesses)]}, Label: "OWNS", Props: pg.Props{"percentage": value.FloatV(0.25)}})
		}
		for j := i * 2; j < i*2+2; j++ {
			ops = append(ops, overlay.Op{Kind: overlay.OpRemoveEdge, Edge: edges[j*97%len(edges)]})
		}
		return append(ops,
			overlay.Op{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: persons[i*31%len(persons)]}, Key: "fiscalCode", Value: value.Str("PX")},
			overlay.Op{Kind: overlay.OpAddNode, Labels: []string{"Business"}, Props: pg.Props{"fiscalCode": value.Str("CN")}})
	}
	ov := overlay.New(base)
	for i := 0; i < 50; i++ {
		if _, err := ov.Apply(batch(i)); err != nil {
			b.Fatalf("batch %d: %v", i, err)
		}
	}
	batches := make([][]overlay.Op, 16)
	for i := range batches {
		batches[i] = batch(50 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ov.Clone().Apply(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}
