package pg

import (
	"bytes"
	"math/rand"
	"reflect"
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
	if !reflect.DeepEqual(f.NodeLabels(), f2.NodeLabels()) {
		t.Fatalf("node labels: %v vs %v", f.NodeLabels(), f2.NodeLabels())
	}
	if !reflect.DeepEqual(f.EdgeLabels(), f2.EdgeLabels()) {
		t.Fatalf("edge labels: %v vs %v", f.EdgeLabels(), f2.EdgeLabels())
	}
	if !reflect.DeepEqual(f.Symbols().Names(), f2.Symbols().Names()) {
		t.Fatal("symbol tables diverge")
	}
	for i, n := range f.Nodes() {
		n2 := f2.Nodes()[i]
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("node row %d: %+v vs %+v", i, n, n2)
		}
		if !reflect.DeepEqual(f.Out(n.ID), f2.Out(n.ID)) || !reflect.DeepEqual(f.In(n.ID), f2.In(n.ID)) {
			t.Fatalf("adjacency of node %d diverges", n.ID)
		}
		for k := range n.Props {
			v1, ok1 := f.NodeProp(n.ID, k)
			v2, ok2 := f2.NodeProp(n.ID, k)
			if ok1 != ok2 || v1 != v2 {
				t.Fatalf("NodeProp(%d, %q): %v/%v vs %v/%v", n.ID, k, v1, ok1, v2, ok2)
			}
		}
	}
	for i, e := range f.Edges() {
		if !reflect.DeepEqual(e, f2.Edges()[i]) {
			t.Fatalf("edge row %d diverges", i)
		}
		for k := range e.Props {
			v1, ok1 := f.EdgeProp(e.ID, k)
			v2, ok2 := f2.EdgeProp(e.ID, k)
			if ok1 != ok2 || v1 != v2 {
				t.Fatalf("EdgeProp(%d, %q) diverges", e.ID, k)
			}
		}
	}
	for _, l := range f.NodeLabels() {
		if !reflect.DeepEqual(f.NodesByLabel(l), f2.NodesByLabel(l)) {
			t.Fatalf("NodesByLabel(%q) diverges", l)
		}
	}
	for _, l := range f.EdgeLabels() {
		if !reflect.DeepEqual(f.EdgesByLabel(l), f2.EdgesByLabel(l)) {
			t.Fatalf("EdgesByLabel(%q) diverges", l)
		}
	}
	var b1, b2 bytes.Buffer
	if err := f.Thaw().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := f2.Thaw().WriteJSON(&b2); err != nil {
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

// TestFrozenConcurrentReadersLazyFacade: every snapshot — Freeze-built or
// column-built — defers its pointer facade to first use; many goroutines
// racing to be that first use must all observe the same fully-built facade
// (facadeOnce), and column-only reads (counts, degrees, property lookups)
// must be correct before anything has forced materialization.
func TestFrozenConcurrentReadersLazyFacade(t *testing.T) {
	g := rawRandomGraph(rand.New(rand.NewSource(7)))
	f := g.Freeze()
	fromColumns, err := FrozenFromColumns(f.Columns())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("freeze", func(t *testing.T) { raceLazyFacade(t, f, g.Freeze()) })
	t.Run("columns", func(t *testing.T) { raceLazyFacade(t, f, fromColumns) })
}

// raceLazyFacade checks the untouched snapshot f2 against the reference f.
func raceLazyFacade(t *testing.T, f, f2 *Frozen) {
	// Column-only reads work pre-facade.
	if f2.NumNodes() != f.NumNodes() || f2.NumEdges() != f.NumEdges() {
		t.Fatal("counts diverge before facade materialization")
	}
	for _, n := range f.Nodes() {
		if f2.OutDegree(n.ID) != f.OutDegree(n.ID) || f2.InDegree(n.ID) != f.InDegree(n.ID) {
			t.Fatalf("degree of node %d diverges before facade materialization", n.ID)
		}
		for k := range n.Props {
			v1, _ := f.NodeProp(n.ID, k)
			v2, ok := f2.NodeProp(n.ID, k)
			if !ok || v1 != v2 {
				t.Fatalf("NodeProp(%d, %q) diverges before facade materialization", n.ID, k)
			}
		}
	}

	// Race to materialize: every goroutine mixes facade-forcing reads.
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				nodes := f2.Nodes()
				if len(nodes) != f.NumNodes() {
					errs <- "Nodes() length diverges"
					return
				}
				n := nodes[(w*53+iter)%len(nodes)]
				if got := f2.Node(n.ID); got != n {
					errs <- "Node() does not return the shared facade pointer"
					return
				}
				if len(f2.Out(n.ID)) != f.OutDegree(n.ID) {
					errs <- "Out() window diverges"
					return
				}
				for _, l := range f2.NodeLabels() {
					if len(f2.NodesByLabel(l)) != len(f.NodesByLabel(l)) {
						errs <- "NodesByLabel diverges"
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
