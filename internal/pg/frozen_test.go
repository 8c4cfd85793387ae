package pg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/value"
)

// randomFrozenGraph builds a randomized graph exercising the whole storage
// surface: multi-labeled and unlabeled nodes, mixed-kind properties, parallel
// and self-loop edges, and OID gaps from removals.
func randomFrozenGraph(r *rand.Rand) *Graph {
	labels := []string{"Company", "Person", "Asset", "Branch"}
	edgeLabels := []string{"OWNS", "WORKS_FOR", "HOLDS", ""}
	propKeys := []string{"name", "pct", "age", "active", "rank"}

	randValue := func() value.Value {
		switch r.Intn(4) {
		case 0:
			return value.Str(fmt.Sprintf("s%d", r.Intn(50)))
		case 1:
			return value.IntV(int64(r.Intn(1000) - 500))
		case 2:
			return value.FloatV(float64(r.Intn(2000))/7 - 100)
		default:
			return value.BoolV(r.Intn(2) == 0)
		}
	}
	randProps := func() Props {
		if r.Intn(3) == 0 {
			return nil
		}
		p := Props{}
		for _, k := range propKeys {
			if r.Intn(3) == 0 {
				p[k] = randValue()
			}
		}
		return p
	}

	g := New()
	n := 5 + r.Intn(40)
	var oids []OID
	for i := 0; i < n; i++ {
		var ls []string
		for _, l := range labels {
			if r.Intn(3) == 0 {
				ls = append(ls, l)
			}
		}
		node := g.AddNode(ls, randProps())
		oids = append(oids, node.ID)
	}
	var eids []OID
	for i := 0; i < 3*n; i++ {
		from := oids[r.Intn(len(oids))]
		to := oids[r.Intn(len(oids))]
		e := g.MustAddEdge(from, to, edgeLabels[r.Intn(len(edgeLabels))], randProps())
		eids = append(eids, e.ID)
	}
	// OID gaps: drop a few constructs so frozen rows are not contiguous.
	for i := 0; i < len(eids)/10; i++ {
		_ = g.RemoveEdge(eids[r.Intn(len(eids))])
	}
	for i := 0; i < len(oids)/10; i++ {
		_ = g.RemoveNode(oids[r.Intn(len(oids))])
	}
	return g
}

func graphJSON(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestFreezeThawRoundTrip is the Freeze/Thaw property test: for randomized
// graphs, Thaw(Freeze(g)) serializes byte-identically to g.
func TestFreezeThawRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := randomFrozenGraph(rand.New(rand.NewSource(seed)))
		want := graphJSON(t, g)
		got := graphJSON(t, g.Freeze().Thaw())
		if !bytes.Equal(want, got) {
			t.Fatalf("seed %d: Thaw(Freeze(g)) differs from g:\nwant %s\ngot  %s", seed, want, got)
		}
	}
}

// TestFrozenViewEquivalence checks every read of a frozen snapshot against
// the mutable graph it was frozen from, element by element and in order.
func TestFrozenViewEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := randomFrozenGraph(rand.New(rand.NewSource(seed)))
		checkReads(t, g.Freeze(), g)
		if t.Failed() {
			t.Fatalf("seed %d: the snapshot's reads diverge from the graph's", seed)
		}
	}
}

// TestFrozenReadsWithoutFacade: a snapshot answers every read from its
// columns alone. Node and Edge build a fresh struct per call and cache
// nothing, so a caller mutating one result leaves the next read intact, and
// Thaw still reproduces the source graph.
func TestFrozenReadsWithoutFacade(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomFrozenGraph(rand.New(rand.NewSource(seed)))
		f := g.Freeze()
		checkReads(t, f, g)
		for _, n := range g.Nodes() {
			a, b := f.Node(n.ID), f.Node(n.ID)
			if a == b {
				t.Fatalf("seed %d: Node(%d) returned a cached struct", seed, n.ID)
			}
			a.Labels = append(a.Labels[:0], "Scribbled")
		}
		for _, e := range g.Edges() {
			if a, b := f.Edge(e.ID), f.Edge(e.ID); a == b {
				t.Fatalf("seed %d: Edge(%d) returned a cached struct", seed, e.ID)
			}
		}
		if !bytes.Equal(graphJSON(t, f.Thaw()), graphJSON(t, g)) {
			t.Fatalf("seed %d: Thaw diverges from the source graph", seed)
		}
		checkReads(t, f, g)
		if t.Failed() {
			t.Fatalf("seed %d: the snapshot's reads diverge from the graph's", seed)
		}
	}
}

// viewLabels lists the distinct node and edge labels a view's scans
// present, sorted: pgtest.NodeLabels and pgtest.EdgeLabels, which the tests
// inside this package cannot import.
func viewLabels(v View) (nodes, edges []string) {
	nodeSet, edgeSet := map[string]bool{}, map[string]bool{}
	v.ScanNodes(func(r *NodeRow) bool {
		for _, l := range r.Labels {
			nodeSet[l] = true
		}
		return true
	})
	v.ScanEdges(func(r *EdgeRow) bool {
		edgeSet[r.Label] = true
		return true
	})
	sorted := func(set map[string]bool) []string {
		out := make([]string, 0, len(set))
		for l := range set {
			out = append(out, l)
		}
		sort.Strings(out)
		return out
	}
	return sorted(nodeSet), sorted(edgeSet)
}

// checkReads is the one read check of a frozen snapshot: point lookups
// (built per call), the CSR windows, out-degrees, the label sets and counts,
// and the row scans with their single-property reads, each compared against
// the graph f was frozen from. It reports with t.Errorf, so concurrent
// readers can run it too.
func checkReads(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
		t.Errorf("size %d/%d, want %d/%d", f.NumNodes(), f.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	nodes, edges := g.Nodes(), g.Edges()
	for _, n := range nodes {
		if got := f.Node(n.ID); !reflect.DeepEqual(got, n) {
			t.Errorf("Node(%d) = %+v, want %+v", n.ID, got, n)
		}
		// In-degrees are the in windows checkCSR compares.
		if f.OutDegree(n.ID) != len(g.Out(n.ID)) {
			t.Errorf("OutDegree(%d) = %d, want %d", n.ID, f.OutDegree(n.ID), len(g.Out(n.ID)))
		}
	}
	for _, e := range edges {
		if got := f.Edge(e.ID); !reflect.DeepEqual(got, e) {
			t.Errorf("Edge(%d) = %+v, want %+v", e.ID, got, e)
		}
	}
	checkCSR(t, f, g)
	if f.Node(1<<40) != nil || f.Edge(1<<40) != nil || f.OutDegree(1<<40) != 0 {
		t.Errorf("lookup of an absent OID returned a construct")
	}
	fNodeLabels, fEdgeLabels := viewLabels(f)
	gNodeLabels, gEdgeLabels := viewLabels(g)
	if !reflect.DeepEqual(fNodeLabels, gNodeLabels) {
		t.Errorf("node labels = %v, want %v", fNodeLabels, gNodeLabels)
	}
	if !reflect.DeepEqual(fEdgeLabels, gEdgeLabels) {
		t.Errorf("edge labels = %v, want %v", fEdgeLabels, gEdgeLabels)
	}
	for _, l := range append(gNodeLabels, "NoSuchLabel") {
		if got, want := f.NodeLabelCount(l), len(g.NodesByLabel(l)); got != want {
			t.Errorf("NodeLabelCount(%q) = %d, want %d", l, got, want)
		}
	}
	for _, l := range append(gEdgeLabels, "NoSuchLabel") {
		if got, want := f.EdgeLabelCount(l), len(g.EdgesByLabel(l)); got != want {
			t.Errorf("EdgeLabelCount(%q) = %d, want %d", l, got, want)
		}
	}
	i := 0
	f.ScanNodes(func(r *NodeRow) bool {
		n := nodes[i]
		if r.ID != n.ID || !reflect.DeepEqual(r.Labels, n.Labels) || !reflect.DeepEqual(PropMap(r.Props), n.Props) {
			t.Errorf("ScanNodes row %d = %+v, want %+v", i, r, n)
		}
		checkRowProps(t, r.ID, r.Props, n.Props)
		i++
		return true
	})
	i = 0
	f.ScanEdges(func(r *EdgeRow) bool {
		if e := edges[i]; r.ID != e.ID || r.Label != e.Label || r.From != e.From || r.To != e.To || (r.Props == nil) != (e.Props == nil) || len(r.Props) != len(e.Props) {
			t.Errorf("ScanEdges row %d = %+v, want %+v", i, r, e)
		}
		checkRowProps(t, r.ID, r.Props, edges[i].Props)
		i++
		return true
	})
}

// checkRowProps reads every property of want back off a scanned row by key,
// and one key no construct carries.
func checkRowProps(t *testing.T, id OID, row PropList, want Props) {
	t.Helper()
	for k, v := range want {
		if got, ok := row.Get(k); !ok || got != v {
			t.Errorf("row %d property %q = %v, %v, want %v", id, k, got, ok, v)
		}
	}
	if _, ok := row.Get("no-such-key"); ok {
		t.Errorf("row %d found a phantom key", id)
	}
}

// checkCSR checks the snapshot's adjacency against the graph it was frozen
// from: every node's out and in CSR windows hold, in order, the rows of the
// edges Graph.Out and Graph.In list.
func checkCSR(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	window := func(off, adj []int32, row int) []OID {
		ids := []OID{}
		for _, r := range adj[off[row]:off[row+1]] {
			ids = append(ids, f.edgeOIDs[r])
		}
		return ids
	}
	edgeIDs := func(es []*Edge) []OID {
		ids := []OID{}
		for _, e := range es {
			ids = append(ids, e.ID)
		}
		return ids
	}
	for row, id := range f.nodeOIDs {
		if got, want := window(f.outOff, f.outAdj, row), edgeIDs(g.Out(id)); !reflect.DeepEqual(got, want) {
			t.Errorf("out window of node %d = %v, want %v", id, got, want)
		}
		if got, want := window(f.inOff, f.inAdj, row), edgeIDs(g.In(id)); !reflect.DeepEqual(got, want) {
			t.Errorf("in window of node %d = %v, want %v", id, got, want)
		}
	}
}

// TestFrozenReadersRaceLabelSummary: eight readers run the whole read check
// on one fresh snapshot at once, so their first NodeLabelCount and
// EdgeLabelCount calls race the one label-count build and every point lookup
// builds its struct beside the others'. make test-race reruns it ten times
// under the race detector.
func TestFrozenReadersRaceLabelSummary(t *testing.T) {
	g := randomFrozenGraph(rand.New(rand.NewSource(7)))
	f := g.Freeze()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for iter := 0; iter < 4; iter++ {
				checkReads(t, f, g)
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestFreezeDeterministicSymbols: symbol assignment is a pure function of
// graph content — two equal-content graphs (here: g and its round-trip twin)
// freeze to identical symbol tables.
func TestFreezeDeterministicSymbols(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomFrozenGraph(rand.New(rand.NewSource(seed)))
		a := g.Freeze()
		b := a.Thaw().Freeze()
		if !reflect.DeepEqual(a.Symbols().Names(), b.Symbols().Names()) {
			t.Fatalf("seed %d: symbol tables differ:\n%v\n%v", seed, a.Symbols().Names(), b.Symbols().Names())
		}
		c, err := FrozenFromColumns(a.Columns())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a.Columns(), c.Columns()) || !reflect.DeepEqual(a.Columns(), b.Columns()) {
			t.Fatalf("seed %d: columns differ across Freeze, re-import and Thaw+Freeze", seed)
		}
	}
}

// TestFrozenIsDeepSnapshot: mutations of the source graph after Freeze are
// invisible to the snapshot.
func TestFrozenIsDeepSnapshot(t *testing.T) {
	g := New()
	n := g.AddNode([]string{"Company"}, Props{"name": value.Str("acme")})
	m := g.AddNode([]string{"Person"}, nil)
	g.MustAddEdge(n.ID, m.ID, "OWNS", nil)
	f := g.Freeze()
	before := graphJSON(t, f.Thaw())

	g.AddNode([]string{"Intruder"}, nil)
	if err := g.SetNodeProp(n.ID, "name", value.Str("changed")); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(m.ID, n.ID, "WORKS_FOR", nil)

	if got := graphJSON(t, f.Thaw()); !bytes.Equal(before, got) {
		t.Fatalf("snapshot changed after source mutation:\nbefore %s\nafter  %s", before, got)
	}
	if v := f.Node(n.ID).Props["name"]; v != value.Str("acme") {
		t.Fatalf("frozen property changed: %v", v)
	}
}

// TestFrozenConcurrentReaders hammers one snapshot from 8 goroutines doing
// full read sweeps. Run under -race (make test-race) this proves the frozen
// read path performs no hidden mutation.
func TestFrozenConcurrentReaders(t *testing.T) {
	g := randomFrozenGraph(rand.New(rand.NewSource(7)))
	f := g.Freeze()
	want := graphJSON(t, f.Thaw())
	nodeLabels, edgeLabels := viewLabels(g)

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				total := 0
				for _, l := range nodeLabels {
					total += f.NodeLabelCount(l)
				}
				f.ScanNodes(func(n *NodeRow) bool {
					_ = f.Node(n.ID)
					_, _ = n.Props.Get("name")
					_ = f.OutDegree(n.ID)
					return true
				})
				f.ScanEdges(func(e *EdgeRow) bool {
					_ = f.Edge(e.ID)
					_, _ = e.Props.Get("pct")
					return true
				})
				for _, l := range edgeLabels {
					total += f.EdgeLabelCount(l)
				}
				if total == 0 && f.NumNodes() > 0 && len(nodeLabels) > 0 {
					errs <- fmt.Errorf("reader %d: label scan went empty", w)
					return
				}
			}
			if got := graphJSON(t, f.Thaw()); !bytes.Equal(want, got) {
				errs <- fmt.Errorf("reader %d: view drifted during concurrent reads", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
