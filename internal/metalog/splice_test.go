package metalog

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// deltaModel is the graph state a lineage of diffs describes, by OID: the
// oracle the splice tests extract from. A diff is applied to it the way
// ApplyFactsDelta reads one — removals, then additions, then the changed
// nodes' new states — and a retraction of an OID it lacks is a no-op.
type deltaModel struct {
	nodes map[pg.OID]*pg.NodeRow
	edges map[pg.OID]*pg.EdgeRow
}

// modelOf copies a view's rows, which a scan may reuse.
func modelOf(v pg.View) deltaModel {
	m := deltaModel{nodes: map[pg.OID]*pg.NodeRow{}, edges: map[pg.OID]*pg.EdgeRow{}}
	v.ScanNodes(func(n *pg.NodeRow) bool {
		m.nodes[n.ID] = &pg.NodeRow{ID: n.ID, Labels: slices.Clone(n.Labels), Props: slices.Clone(n.Props)}
		return true
	})
	v.ScanEdges(func(e *pg.EdgeRow) bool {
		m.edges[e.ID] = &pg.EdgeRow{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: slices.Clone(e.Props)}
		return true
	})
	return m
}

// apply returns the state after diff; m is unchanged.
func (m deltaModel) apply(diff overlay.Diff) deltaModel {
	next := deltaModel{nodes: maps.Clone(m.nodes), edges: maps.Clone(m.edges)}
	for _, n := range diff.RemovedNodes {
		delete(next.nodes, n.ID)
	}
	for _, e := range diff.RemovedEdges {
		delete(next.edges, e.ID)
	}
	for _, n := range diff.AddedNodes {
		next.nodes[n.ID] = n
	}
	for _, c := range diff.ChangedNodes {
		next.nodes[c.After.ID] = c.After
	}
	for _, e := range diff.AddedEdges {
		next.edges[e.ID] = e
	}
	return next
}

// extract is ExtractFacts over the state, laid out as a graph in ascending
// OID order.
func (m deltaModel) extract(t testing.TB, cat *Catalog) *vadalog.Database {
	t.Helper()
	g := pg.New()
	for _, id := range sortedOIDs(m.nodes) {
		n := m.nodes[id]
		if _, err := g.AddNodeWithID(id, n.Labels, pg.PropMap(n.Props)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range sortedOIDs(m.edges) {
		e := m.edges[id]
		if _, err := g.AddEdgeWithID(id, e.From, e.To, e.Label, pg.PropMap(e.Props)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := ExtractFacts(g, cat)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func sortedOIDs[R any](rows map[pg.OID]R) []pg.OID {
	ids := make([]pg.OID, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// renderInOrder writes every relation's facts at their positions: equal
// renderings mean position-for-position equal databases.
func renderInOrder(db *vadalog.Database) string {
	var b strings.Builder
	for _, p := range db.Predicates() {
		for i, f := range db.Facts(p) {
			fmt.Fprintf(&b, "%s[%d]%v\n", p, i, f)
		}
	}
	return b.String()
}

// spliceParent is a fact database whose relations hold both kinds of row:
// a frozen base with gaps between its OIDs (nodes 10, 20, 30, edges 40,
// 50, 60), and an overlay over it that changed node 10 and added two
// Company nodes and three owns edges between them, so Company reads
// [10 list, 20 frozen, two list rows] and owns [40, 50 frozen, three list
// rows]. Three list rows leave room in the storage's last growth, which is
// what a sibling would write into if the splice did not clip it. The
// catalog also knows a Fund label no construct carries.
func spliceParent(t testing.TB) (*vadalog.Database, *Catalog, deltaModel) {
	t.Helper()
	g := pg.New()
	for _, n := range []struct {
		id     pg.OID
		labels []string
		props  pg.Props
	}{
		{10, []string{"Company"}, pg.Props{"name": value.Str("acme"), "share": value.IntV(10)}},
		{20, []string{"Company", "Bank"}, pg.Props{"name": value.Str("bcorp")}},
		{30, []string{"Person"}, pg.Props{"name": value.Str("carla"), "share": value.FloatV(0.5)}},
	} {
		if _, err := g.AddNodeWithID(n.id, n.labels, n.props); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		id, from, to pg.OID
		label        string
		props        pg.Props
	}{
		{40, 10, 20, "owns", pg.Props{"share": value.FloatV(0.2)}},
		{50, 30, 10, "owns", nil},
		{60, 30, 20, "controls", nil},
	} {
		if _, err := g.AddEdgeWithID(e.id, e.from, e.to, e.label, e.props); err != nil {
			t.Fatal(err)
		}
	}
	frozen := g.Freeze()
	cat := FromGraph(frozen)
	cat.EnsureNode("Fund", "name")
	ov := overlay.New(frozen)
	if _, err := ov.Apply([]overlay.Op{
		{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: 10}, Key: "share", Value: value.IntV(11)},
		{Kind: overlay.OpAddNode, Name: "a", Labels: []string{"Company"}, Props: pg.Props{"name": value.Str("a")}},
		{Kind: overlay.OpAddNode, Name: "b", Labels: []string{"Company"}, Props: pg.Props{"name": value.Str("b")}},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: "a"}, To: overlay.Ref{ID: 10}, Label: "owns"},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: "b"}, To: overlay.Ref{Name: "a"}, Label: "owns",
			Props: pg.Props{"share": value.FloatV(0.7)}},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: 30}, To: overlay.Ref{Name: "b"}, Label: "owns"},
	}); err != nil {
		t.Fatal(err)
	}
	db, err := ExtractFacts(ov, cat)
	if err != nil {
		t.Fatal(err)
	}
	return db, cat, modelOf(ov)
}

func company(id pg.OID, name string, labels ...string) *pg.NodeRow {
	return &pg.NodeRow{ID: id, Labels: append([]string{"Company"}, labels...), Props: pg.PropList{{Key: "name", Val: value.Str(name)}}}
}

func owns(id, from, to pg.OID) *pg.EdgeRow {
	return &pg.EdgeRow{ID: id, From: from, To: to, Label: "owns"}
}

// TestApplyFactsDeltaSplice drives the splice through its edge cases, each
// a lineage of hand-built diffs from spliceParent. After every generation the
// maintained database must be position-for-position ExtractFacts over the
// state the lineage describes, and the parent must read as it did.
func TestApplyFactsDeltaSplice(t *testing.T) {
	cases := []struct {
		name string
		gens []func(m deltaModel) overlay.Diff
	}{
		{"retract an OID the relation lacks", []func(deltaModel) overlay.Diff{
			func(deltaModel) overlay.Diff {
				return overlay.Diff{
					// 5 sorts before every row, 15 between two, 999 after all;
					// Fund has no relation at all.
					RemovedNodes: []*pg.NodeRow{company(5, "x"), company(15, "y"), company(999, "z", "Fund")},
					RemovedEdges: []*pg.EdgeRow{owns(45, 10, 20), owns(998, 10, 20)},
				}
			},
		}},
		{"change a node", []func(deltaModel) overlay.Diff{
			func(m deltaModel) overlay.Diff {
				var changes []overlay.NodeChange
				for id, n := range m.nodes { // the frozen row 20 and the list rows
					if id != 10 && id != 30 {
						changes = append(changes, overlay.NodeChange{Before: n, After: company(id, "renamed", n.Labels[1:]...)})
					}
				}
				return overlay.Diff{ChangedNodes: changes}
			},
		}},
		{"add before the first and after the last row", []func(deltaModel) overlay.Diff{
			func(deltaModel) overlay.Diff {
				return overlay.Diff{
					AddedNodes: []*pg.NodeRow{company(999, "last"), company(5, "first", "Bank")},
					AddedEdges: []*pg.EdgeRow{owns(1000, 999, 5), owns(6, 5, 10)},
				}
			},
		}},
		{"retract every row, then refill", []func(deltaModel) overlay.Diff{
			func(m deltaModel) overlay.Diff {
				var d overlay.Diff
				for _, e := range m.edges {
					if e.Label == "owns" {
						d.RemovedEdges = append(d.RemovedEdges, e)
					}
				}
				return d
			},
			func(deltaModel) overlay.Diff {
				return overlay.Diff{AddedEdges: []*pg.EdgeRow{owns(500, 20, 10), owns(7, 10, 20)}}
			},
		}},
		{"start from an absent relation", []func(deltaModel) overlay.Diff{
			func(deltaModel) overlay.Diff {
				return overlay.Diff{AddedNodes: []*pg.NodeRow{{ID: 600, Labels: []string{"Fund"}, Props: pg.PropList{{Key: "name", Val: value.Str("f")}}}}}
			},
			func(deltaModel) overlay.Diff {
				return overlay.Diff{AddedNodes: []*pg.NodeRow{{ID: 8, Labels: []string{"Fund"}}}}
			},
		}},
		{"list rows kept across three generations", []func(deltaModel) overlay.Diff{
			func(deltaModel) overlay.Diff {
				return overlay.Diff{AddedNodes: []*pg.NodeRow{company(700, "g1")}, AddedEdges: []*pg.EdgeRow{owns(701, 700, 10)}}
			},
			func(m deltaModel) overlay.Diff {
				return overlay.Diff{
					ChangedNodes: []overlay.NodeChange{{Before: m.nodes[700], After: company(700, "g2")}},
					AddedNodes:   []*pg.NodeRow{company(702, "g2b")},
				}
			},
			func(m deltaModel) overlay.Diff {
				return overlay.Diff{RemovedEdges: []*pg.EdgeRow{m.edges[40]}, AddedEdges: []*pg.EdgeRow{owns(703, 702, 700)}}
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent, cat, model := spliceParent(t)
			before := renderInOrder(parent)
			db := parent
			for g, gen := range tc.gens {
				diff := gen(model)
				next, ok := ApplyFactsDelta(db, cat, diff)
				if !ok {
					t.Fatalf("generation %d: expected the incremental path", g+1)
				}
				model = model.apply(diff)
				factsDBEqual(t, fmt.Sprintf("generation %d", g+1), next, model.extract(t, cat))
				db = next
			}
			if renderInOrder(parent) != before {
				t.Fatal("the lineage changed the parent")
			}
		})
	}
}

// TestApplyFactsDeltaSiblings: two generations spliced from one parent share
// its list storage, as the server's are when a batch is rejected after the
// fold (Server.Mutate logs only after ApplyFactsDelta). Each diff adds one
// list row to Company and one to owns, which fits in the room the parent's
// list storage has left; whichever sibling is built first, and when
// both are built at once, each must read as ExtractFacts over its own state
// and the parent as it did. It is meant to run under the race detector
// (make test-race).
func TestApplyFactsDeltaSiblings(t *testing.T) {
	parent, cat, model := spliceParent(t)
	before := renderInOrder(parent)
	diffs := []overlay.Diff{
		{
			AddedNodes: []*pg.NodeRow{company(800, "left")},
			AddedEdges: []*pg.EdgeRow{owns(801, 800, 10)},
			ChangedNodes: []overlay.NodeChange{{Before: model.nodes[30], After: &pg.NodeRow{ID: 30, Labels: []string{"Person"},
				Props: pg.PropList{{Key: "name", Val: value.Str("carla2")}}}}},
		},
		{
			AddedNodes:   []*pg.NodeRow{company(5, "right")},
			AddedEdges:   []*pg.EdgeRow{owns(9, 20, 10)},
			RemovedEdges: []*pg.EdgeRow{model.edges[40]},
		},
	}
	wants := make([]*vadalog.Database, len(diffs))
	for i, d := range diffs {
		wants[i] = model.apply(d).extract(t, cat)
	}
	check := func(tag string, got []*vadalog.Database) {
		t.Helper()
		for i := range diffs {
			factsDBEqual(t, fmt.Sprintf("%s: sibling %d", tag, i), got[i], wants[i])
		}
		if renderInOrder(parent) != before {
			t.Fatalf("%s: the siblings changed their parent", tag)
		}
	}
	apply := func(i int) *vadalog.Database {
		db, ok := ApplyFactsDelta(parent, cat, diffs[i])
		if !ok {
			t.Errorf("sibling %d: expected the incremental path", i)
		}
		return db
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		got := make([]*vadalog.Database, len(diffs))
		for _, i := range order {
			got[i] = apply(i)
		}
		check(fmt.Sprintf("order %v", order), got)
	}
	got := make([]*vadalog.Database, len(diffs))
	var wg sync.WaitGroup
	for i := range diffs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = apply(i)
		}()
	}
	wg.Wait()
	check("concurrent", got)
}

// BenchmarkApplyFactsDelta folds serve-write's batch shape — 4 OWNS adds, 2
// OWNS removes, one set_node_prop on a person, one add_node labelled
// Business/Entity — into a lineage over a streamed shareholding graph,
// starting over from the extracted base every 100 batches as the
// workload's compaction does. The diffs are made before the timer starts.
func BenchmarkApplyFactsDelta(b *testing.B) {
	for _, companies := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("companies=%d", companies), func(b *testing.B) {
			ld := pg.NewBulkLoader(1)
			st, err := fingraph.StreamTopology(fingraph.DefaultConfig(companies, 1), fingraph.StreamOptions{}, ld)
			if err != nil {
				b.Fatal(err)
			}
			frozen, err := ld.Finish()
			if err != nil {
				b.Fatal(err)
			}
			cat := FromGraph(frozen)
			base, err := ExtractFacts(frozen, cat)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			victims := rng.Perm(st.Edges)
			nodes := st.Persons + st.Companies
			ov := overlay.New(frozen)
			diffs := make([]overlay.Diff, 100)
			for k := range diffs {
				var ops []overlay.Op
				for range 4 {
					ops = append(ops, overlay.Op{Kind: overlay.OpAddEdge, Label: "OWNS",
						From:  overlay.Ref{ID: pg.OID(1 + rng.Intn(nodes))},
						To:    overlay.Ref{ID: pg.OID(st.Persons + 1 + rng.Intn(st.Companies))},
						Props: pg.Props{"percentage": value.FloatV(float64(1+rng.Intn(49)) / 100)}})
				}
				for _, v := range victims[2*k : 2*k+2] {
					ops = append(ops, overlay.Op{Kind: overlay.OpRemoveEdge, Edge: pg.OID(nodes + 1 + v)})
				}
				ops = append(ops,
					overlay.Op{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: pg.OID(1 + rng.Intn(st.Persons))},
						Key: "fiscalCode", Value: value.Str(fmt.Sprintf("PX%08d", k))},
					overlay.Op{Kind: overlay.OpAddNode, Labels: []string{"Business", "Entity"},
						Props: pg.Props{"fiscalCode": value.Str(fmt.Sprintf("CN%08d", k))}})
				ov = ov.Clone()
				if diffs[k], err = ov.Apply(ops); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			db := base
			for i := 0; i < b.N; i++ {
				k := i % len(diffs)
				if k == 0 {
					db = base
				}
				var ok bool
				if db, ok = ApplyFactsDelta(db, cat, diffs[k]); !ok {
					b.Fatal("the batch left the incremental path")
				}
			}
		})
	}
}
