package instance

import (
	"runtime"
	"testing"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

// TestMaterializeWritesNoGraph is the memory gate of the row-backed instance
// level: Materialize adds nothing to the dictionary graph, and what a
// materialization keeps live — the dictionary's rows and the Result — stays
// under 1,860 bytes per source edge of a 300-company pyramid-heavy Company
// KG: ~1,620 with attributes held as name-ordered lists, ~2,460 when each
// entity and edge held a Go map, ~3,200 when the input views copied every
// entity and edge into mutable relations, ~11,700 when every I_SM_* construct
// was a node or edge of the graph.
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
	if perEdge >= 1860 {
		t.Errorf("a materialization keeps %.0f B per source edge live; want under 1,860", perEdge)
	}
	t.Logf("%d source edges, %d derived; %.0f B retained per source edge", data.NumEdges(), len(res.Derived.NewEdges), perEdge)
}

// TestMaterializeStagedRetainsNoRun: MaterializeStaged reports each step
// and drops its run — the loaded rows, the fact database — once the step is
// staged, so what it returns keeps next to nothing live: under 1 KiB here,
// gated at 16 KiB, where returning each step's Result kept ~1.4 MB of 60
// companies' runs.
func TestMaterializeStagedRetainsNoRun(t *testing.T) {
	stage := stagingOverlay()
	comps := []Component{
		component("ownership", finance.OwnershipProgram()),
		component("control", finance.ControlProgram()),
	}
	steps, err := MaterializeStaged(supermodel.CompanyKG(), stage, comps, 1, vadalog.Options{})
	if err != nil || len(steps) != 2 {
		t.Fatalf("err = %v, %d steps", err, len(steps))
	}
	var live, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(steps)
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	runtime.KeepAlive(stage)
	kept := int64(live.HeapAlloc) - int64(dropped.HeapAlloc)
	if kept >= 16<<10 {
		t.Errorf("the returned steps keep %d B live; want under 16 KiB", kept)
	}
	t.Logf("the returned steps keep %d B live", kept)
}
