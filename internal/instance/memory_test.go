package instance

import (
	"runtime"
	"testing"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/vadalog"
)

// TestMaterializeWritesNoGraph is the memory gate of the row-backed instance
// level: Materialize adds nothing to the dictionary graph, and what a
// materialization keeps live — the dictionary's rows and the Result — stays
// under 2,850 bytes per source edge of a 300-company pyramid-heavy Company
// KG: ~2,460 with input views that read the rows in place, ~3,200 when they
// copied every entity and edge into mutable relations, ~11,700 when every
// I_SM_* construct was a node or edge of the graph.
func TestMaterializeWritesNoGraph(t *testing.T) {
	cfg := fingraph.DefaultConfig(300, 1)
	cfg.PyramidFraction, cfg.PyramidDepth = 0.4, 25
	data := fingraph.GenerateTopology(cfg).CompanyKG()
	sigma := metalog.MustParse(finance.OwnershipProgram() + finance.ControlProgram())
	d := newCompanyDict(t)
	nodes, edges := d.Graph.NumNodes(), d.Graph.NumEdges()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Materialize(d, PGSource{Data: data}, sigma, 1, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	runtime.KeepAlive(res)

	if d.Graph.NumNodes() != nodes || d.Graph.NumEdges() != edges {
		t.Errorf("dictionary graph went from %d nodes, %d edges to %d, %d", nodes, edges, d.Graph.NumNodes(), d.Graph.NumEdges())
	}
	if len(res.Derived.NewEdges) == 0 {
		t.Fatal("Σ derived nothing; the gate is vacuous")
	}
	perEdge := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(data.NumEdges())
	if perEdge >= 2850 {
		t.Errorf("a materialization keeps %.0f B per source edge live; want under 2,850", perEdge)
	}
	t.Logf("%d source edges, %d derived; %.0f B retained per source edge", data.NumEdges(), len(res.Derived.NewEdges), perEdge)
}
