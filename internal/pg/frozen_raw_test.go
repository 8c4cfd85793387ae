package pg

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/symtab"
	"repro/internal/value"
)

// rawRandomGraph extends randomGraph with the value kinds the serialization
// property tests skip (labeled nulls and Skolem identifiers), so the column
// round trip exercises the full value domain.
func rawRandomGraph(rng *rand.Rand) *Graph {
	g := randomGraph(rng)
	ids := make([]OID, 0, g.NumNodes())
	for _, n := range g.Nodes() {
		ids = append(ids, n.ID)
	}
	for i := 0; i < 3; i++ {
		g.AddNode([]string{"Nullish"}, Props{
			"n":  value.NullV(rng.Int63n(50)),
			"id": value.Skolem("link", value.IntV(rng.Int63n(9))),
		})
	}
	if len(ids) >= 2 {
		g.MustAddEdge(ids[0], ids[1], "", Props{"tag": value.IDV("k(1)")})
	}
	return g
}

// TestColumnsRoundTrip: FrozenFromColumns(f.Columns()) must be
// indistinguishable from f through the whole View surface, including the
// columnar property reads and the thawed mutable graph.
func TestColumnsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := rawRandomGraph(rand.New(rand.NewSource(seed)))
		f := g.Freeze()
		f2, err := FrozenFromColumns(f.Columns())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertFrozenEqual(t, f, f2)
		// One build path: Freeze and the column import hold the same arrays,
		// adjacency rows included, so re-export is the identity.
		if !reflect.DeepEqual(f.Columns(), f2.Columns()) {
			t.Fatalf("seed %d: Freeze columns differ from re-imported columns", seed)
		}
	}
}

// assertFrozenEqual compares two snapshots across every read path.
func assertFrozenEqual(t *testing.T, f, f2 *Frozen) {
	t.Helper()
	if f2.NumNodes() != f.NumNodes() || f2.NumEdges() != f.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", f2.NumNodes(), f2.NumEdges(), f.NumNodes(), f.NumEdges())
	}
	nodeLabels, edgeLabels := viewLabels(f)
	nodeLabels2, edgeLabels2 := viewLabels(f2)
	if !reflect.DeepEqual(nodeLabels, nodeLabels2) {
		t.Fatalf("node labels: %v vs %v", nodeLabels, nodeLabels2)
	}
	if !reflect.DeepEqual(edgeLabels, edgeLabels2) {
		t.Fatalf("edge labels: %v vs %v", edgeLabels, edgeLabels2)
	}
	if !reflect.DeepEqual(f.Symbols().Names(), f2.Symbols().Names()) {
		t.Fatal("symbol tables diverge")
	}
	f.ScanNodes(func(r *NodeRow) bool {
		if n, n2 := f.Node(r.ID), f2.Node(r.ID); !reflect.DeepEqual(n, n2) {
			t.Fatalf("node %d: %+v vs %+v", r.ID, n, n2)
		}
		// In-degrees are the in windows compared below.
		if f.OutDegree(r.ID) != f2.OutDegree(r.ID) {
			t.Fatalf("out-degrees of node %d diverge", r.ID)
		}
		props2 := f2.Node(r.ID).Props
		for _, p := range r.Props {
			if v2, ok := props2[p.Key]; !ok || p.Val != v2 {
				t.Fatalf("node %d property %q: %v vs %v/%v", r.ID, p.Key, p.Val, v2, ok)
			}
		}
		return true
	})
	f.ScanEdges(func(r *EdgeRow) bool {
		e2 := f2.Edge(r.ID)
		if !reflect.DeepEqual(f.Edge(r.ID), e2) {
			t.Fatalf("edge %d diverges", r.ID)
		}
		for _, p := range r.Props {
			if v2, ok := e2.Props[p.Key]; !ok || p.Val != v2 {
				t.Fatalf("edge %d property %q diverges", r.ID, p.Key)
			}
		}
		return true
	})
	if !slices.Equal(f.outOff, f2.outOff) || !slices.Equal(f.outAdj, f2.outAdj) ||
		!slices.Equal(f.inOff, f2.inOff) || !slices.Equal(f.inAdj, f2.inAdj) {
		t.Fatal("CSR adjacency diverges")
	}
	for _, l := range nodeLabels {
		if f.NodeLabelCount(l) != f2.NodeLabelCount(l) {
			t.Fatalf("NodeLabelCount(%q) diverges", l)
		}
	}
	for _, l := range edgeLabels {
		if f.EdgeLabelCount(l) != f2.EdgeLabelCount(l) {
			t.Fatalf("EdgeLabelCount(%q) diverges", l)
		}
	}
	var b1, b2 bytes.Buffer
	if err := WriteJSON(&b1, f); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b2, f2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("thawed serializations diverge")
	}
}

// TestFrozenFromColumnsRejects: every structural invariant violation must
// yield an error, never a panic or a silently wrong snapshot.
func TestFrozenFromColumnsRejects(t *testing.T) {
	base := func() Columns {
		g := New()
		a := g.AddNode([]string{"A"}, Props{"p": value.IntV(1)})
		b := g.AddNode([]string{"B"}, nil)
		g.MustAddEdge(a.ID, b.ID, "E", nil)
		return g.Freeze().Columns()
	}
	cases := []struct {
		name    string
		mutate  func(*Columns)
		wantSub string
	}{
		{"duplicate symbol", func(c *Columns) { c.SymNames = []string{"A", "A", "E", "p"} }, "duplicate name"},
		{"label sym out of range", func(c *Columns) { c.NodeLabels = cloneSyms(c.NodeLabels); c.NodeLabels[0] = 99 }, "out of range"},
		{"prop sym zero", func(c *Columns) { c.NodePropKeys = cloneSyms(c.NodePropKeys); c.NodePropKeys[0] = 0 }, "out of range"},
		{"offsets decrease", func(c *Columns) {
			c.NodeLabelOff = cloneI32(c.NodeLabelOff)
			c.NodeLabelOff[1], c.NodeLabelOff[2] = 2, 1
		}, "decrease"},
		{"offsets wrong length", func(c *Columns) { c.NodePropOff = c.NodePropOff[:1] }, "entries"},
		{"node OIDs descending", func(c *Columns) { c.NodeOIDs = cloneOIDs(c.NodeOIDs); c.NodeOIDs[1] = c.NodeOIDs[0] }, "ascending"},
		{"edge endpoint missing", func(c *Columns) { c.EdgeFrom = cloneOIDs(c.EdgeFrom); c.EdgeFrom[0] = 999 }, "is not a node"},
		{"adjacency out of range", func(c *Columns) { c.OutAdj = cloneI32(c.OutAdj); c.OutAdj[0] = 42 }, "out of range"},
		{"adjacency wrong owner", func(c *Columns) { c.OutOff = cloneI32(c.OutOff); c.OutOff[1], c.OutOff[2] = 0, 1 }, "different source"},
		{"edge column length", func(c *Columns) { c.EdgeTo = c.EdgeTo[:0] }, "disagree"},
		{"edge OID names a node", func(c *Columns) { c.EdgeOIDs = []OID{c.NodeOIDs[1]} }, "both a node and an edge"},
		{"non-positive OID", func(c *Columns) { c.EdgeOIDs = []OID{0} }, "positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mutate(&c)
			f, err := FrozenFromColumns(c)
			if err == nil {
				t.Fatalf("accepted corrupt columns, got snapshot with %d nodes", f.NumNodes())
			}
			if !contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

func cloneSyms(s []symtab.Sym) []symtab.Sym {
	out := make([]symtab.Sym, len(s))
	copy(out, s)
	return out
}

func cloneI32(s []int32) []int32 { out := make([]int32, len(s)); copy(out, s); return out }

func cloneOIDs(s []OID) []OID { out := make([]OID, len(s)); copy(out, s); return out }

// TestFrozenConcurrentReadersLazyFacade: a snapshot — Freeze-built or
// column-built — builds nothing up front but its columns; its one lazy part
// is the label count, and Node and Edge build their structs per call.
// Column-only reads (counts, degrees, scanned properties) must be correct
// before any reader has run, and many goroutines racing the label-count
// build and each other's struct builds must all read what the reference f
// does.
func TestFrozenConcurrentReadersLazyFacade(t *testing.T) {
	g := rawRandomGraph(rand.New(rand.NewSource(7)))
	f := g.Freeze()
	fromColumns, err := FrozenFromColumns(f.Columns())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("freeze", func(t *testing.T) { raceReads(t, f, g.Freeze()) })
	t.Run("columns", func(t *testing.T) { raceReads(t, f, fromColumns) })
}

// raceReads checks the untouched snapshot f2 against the reference f.
func raceReads(t *testing.T, f, f2 *Frozen) {
	if f2.NumNodes() != f.NumNodes() || f2.NumEdges() != f.NumEdges() {
		t.Fatal("counts diverge")
	}
	ids := f.nodeOIDs
	for row, id := range ids {
		if f2.OutDegree(id) != f.OutDegree(id) || f2.inOff[row+1]-f2.inOff[row] != f.inOff[row+1]-f.inOff[row] {
			t.Fatalf("degree of node %d diverges", id)
		}
	}
	f2.ScanNodes(func(r *NodeRow) bool {
		for k, v := range f.Node(r.ID).Props {
			if got, ok := r.Props.Get(k); !ok || got != v {
				t.Fatalf("node %d property %q diverges", r.ID, k)
			}
		}
		return true
	})
	nodeLabels, _ := viewLabels(f)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				id := ids[(w*53+iter)%len(ids)]
				if !reflect.DeepEqual(f2.Node(id), f.Node(id)) {
					errs <- "Node() diverges"
					return
				}
				for _, l := range nodeLabels {
					if f2.NodeLabelCount(l) != f.NodeLabelCount(l) {
						errs <- "NodeLabelCount diverges"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	assertFrozenEqual(t, f, f2)
}
