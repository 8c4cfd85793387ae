package pg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
	if err := g.WriteJSON(&buf); err != nil {
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

// TestFrozenViewEquivalence checks every View method agrees between the
// mutable graph and its frozen snapshot, element by element and in order.
func TestFrozenViewEquivalence(t *testing.T) {
	edgeIDs := func(es []*Edge) []OID {
		out := []OID{}
		for _, e := range es {
			out = append(out, e.ID)
		}
		return out
	}
	for seed := int64(0); seed < 25; seed++ {
		g := randomFrozenGraph(rand.New(rand.NewSource(seed)))
		f := g.Freeze()

		if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: size mismatch: frozen %d/%d, graph %d/%d",
				seed, f.NumNodes(), f.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if !reflect.DeepEqual(f.NodeLabels(), g.NodeLabels()) {
			t.Fatalf("seed %d: NodeLabels %v != %v", seed, f.NodeLabels(), g.NodeLabels())
		}
		if !reflect.DeepEqual(f.EdgeLabels(), g.EdgeLabels()) {
			t.Fatalf("seed %d: EdgeLabels %v != %v", seed, f.EdgeLabels(), g.EdgeLabels())
		}
		gn, fn := g.Nodes(), f.Nodes()
		for i := range gn {
			if fn[i].ID != gn[i].ID {
				t.Fatalf("seed %d: node order diverges at %d", seed, i)
			}
			if !reflect.DeepEqual(fn[i].Labels, gn[i].Labels) {
				t.Fatalf("seed %d: node %d labels %v != %v", seed, gn[i].ID, fn[i].Labels, gn[i].Labels)
			}
			if len(fn[i].Props) != len(gn[i].Props) {
				t.Fatalf("seed %d: node %d prop count", seed, gn[i].ID)
			}
			for k, v := range gn[i].Props {
				if fv, ok := fn[i].Props[k]; !ok || fv != v {
					t.Fatalf("seed %d: node %d prop %q: %v vs %v", seed, gn[i].ID, k, fv, v)
				}
				if cv, ok := f.NodeProp(gn[i].ID, k); !ok || cv != v {
					t.Fatalf("seed %d: NodeProp(%d,%q) = %v,%v want %v", seed, gn[i].ID, k, cv, ok, v)
				}
			}
			if _, ok := f.NodeProp(gn[i].ID, "no-such-key"); ok {
				t.Fatalf("seed %d: NodeProp found a phantom key", seed)
			}
			if !reflect.DeepEqual(edgeIDs(f.Out(gn[i].ID)), edgeIDs(g.Out(gn[i].ID))) {
				t.Fatalf("seed %d: Out(%d) order differs", seed, gn[i].ID)
			}
			if !reflect.DeepEqual(edgeIDs(f.In(gn[i].ID)), edgeIDs(g.In(gn[i].ID))) {
				t.Fatalf("seed %d: In(%d) order differs", seed, gn[i].ID)
			}
			if f.OutDegree(gn[i].ID) != g.OutDegree(gn[i].ID) || f.InDegree(gn[i].ID) != g.InDegree(gn[i].ID) {
				t.Fatalf("seed %d: degree mismatch at node %d", seed, gn[i].ID)
			}
		}
		ge, fe := g.Edges(), f.Edges()
		for i := range ge {
			if fe[i].ID != ge[i].ID || fe[i].Label != ge[i].Label || fe[i].From != ge[i].From || fe[i].To != ge[i].To {
				t.Fatalf("seed %d: edge row %d differs: %+v vs %+v", seed, i, fe[i], ge[i])
			}
			for k, v := range ge[i].Props {
				if cv, ok := f.EdgeProp(ge[i].ID, k); !ok || cv != v {
					t.Fatalf("seed %d: EdgeProp(%d,%q) = %v,%v want %v", seed, ge[i].ID, k, cv, ok, v)
				}
			}
		}
		for _, l := range append(g.NodeLabels(), "NoSuchLabel") {
			var wantIDs, gotIDs []OID
			for _, n := range g.NodesByLabel(l) {
				wantIDs = append(wantIDs, n.ID)
			}
			for _, n := range f.NodesByLabel(l) {
				gotIDs = append(gotIDs, n.ID)
			}
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Fatalf("seed %d: NodesByLabel(%q) %v != %v", seed, l, gotIDs, wantIDs)
			}
		}
		for _, l := range append(g.EdgeLabels(), "NoSuchLabel") {
			if !reflect.DeepEqual(edgeIDs(f.EdgesByLabel(l)), edgeIDs(g.EdgesByLabel(l))) {
				t.Fatalf("seed %d: EdgesByLabel(%q) differs", seed, l)
			}
		}
		if f.Node(1<<40) != nil || f.Edge(1<<40) != nil {
			t.Fatalf("seed %d: lookup of absent OID returned a construct", seed)
		}
	}
}

// checkFacadeFreeReads compares, against the graph f was frozen from, every
// read a frozen snapshot answers without its facade: point lookups,
// adjacency, label listings and counts, the row scans and Thaw. It reports
// with t.Errorf, so readers racing the facade build can run it too.
func checkFacadeFreeReads(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	nodes, edges := g.Nodes(), g.Edges()
	for _, n := range nodes {
		if got := f.Node(n.ID); !reflect.DeepEqual(got, n) {
			t.Errorf("Node(%d) = %+v, want %+v", n.ID, got, n)
		}
		if got, want := f.Out(n.ID), g.Out(n.ID); !reflect.DeepEqual(got, want) {
			t.Errorf("Out(%d) = %v, want %v", n.ID, got, want)
		}
		if got, want := f.In(n.ID), g.In(n.ID); !reflect.DeepEqual(got, want) {
			t.Errorf("In(%d) = %v, want %v", n.ID, got, want)
		}
	}
	for _, e := range edges {
		if got := f.Edge(e.ID); !reflect.DeepEqual(got, e) {
			t.Errorf("Edge(%d) = %+v, want %+v", e.ID, got, e)
		}
	}
	if f.Node(1<<40) != nil || f.Edge(1<<40) != nil || f.Out(1<<40) != nil || f.In(1<<40) != nil {
		t.Errorf("lookup of an absent OID returned a construct")
	}
	if got, want := f.NodeLabels(), g.NodeLabels(); !reflect.DeepEqual(got, want) {
		t.Errorf("NodeLabels = %v, want %v", got, want)
	}
	if got, want := f.EdgeLabels(), g.EdgeLabels(); !reflect.DeepEqual(got, want) {
		t.Errorf("EdgeLabels = %v, want %v", got, want)
	}
	for _, l := range append(g.NodeLabels(), "NoSuchLabel") {
		if got, want := f.NodeLabelCount(l), len(g.NodesByLabel(l)); got != want {
			t.Errorf("NodeLabelCount(%q) = %d, want %d", l, got, want)
		}
	}
	for _, l := range append(g.EdgeLabels(), "NoSuchLabel") {
		if got, want := f.EdgeLabelCount(l), len(g.EdgesByLabel(l)); got != want {
			t.Errorf("EdgeLabelCount(%q) = %d, want %d", l, got, want)
		}
	}
	i := 0
	f.ScanNodes(func(r *NodeRow) bool {
		if n := nodes[i]; r.ID != n.ID || !reflect.DeepEqual(r.Labels, n.Labels) || !reflect.DeepEqual(propMap(r.Props), n.Props) {
			t.Errorf("ScanNodes row %d = %+v, want %+v", i, r, n)
		}
		i++
		return true
	})
	i = 0
	f.ScanEdges(func(r *EdgeRow) bool {
		if e := edges[i]; r.ID != e.ID || r.Label != e.Label || r.From != e.From || r.To != e.To || (r.Props == nil) != (e.Props == nil) || len(r.Props) != len(e.Props) {
			t.Errorf("ScanEdges row %d = %+v, want %+v", i, r, e)
		}
		i++
		return true
	})
}

// TestFrozenReadsWithoutFacade: the reads the serving path makes of a
// snapshot answer from the columns — equal to the mutable graph's, facade
// unbuilt — and answer the same once a listing has built it.
func TestFrozenReadsWithoutFacade(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomFrozenGraph(rand.New(rand.NewSource(seed)))
		f := g.Freeze()
		checkFacadeFreeReads(t, f, g)
		if !bytes.Equal(graphJSON(t, f.Thaw()), graphJSON(t, g)) {
			t.Fatalf("seed %d: Thaw diverges from the source graph", seed)
		}
		if f.FacadeBuilt() {
			t.Fatalf("seed %d: a point lookup, label listing, scan or Thaw built the facade", seed)
		}
		if f.Nodes(); !f.FacadeBuilt() {
			t.Fatalf("seed %d: Nodes() did not build the facade", seed)
		}
		checkFacadeFreeReads(t, f, g)
	}
}

// TestFrozenLookupsRaceFacadeBuild: readers doing point lookups and scans
// while one goroutine makes the first Nodes() call see the same constructs
// whichever side of the build each read lands on. make test-race reruns it
// ten times under the race detector.
func TestFrozenLookupsRaceFacadeBuild(t *testing.T) {
	g := randomFrozenGraph(rand.New(rand.NewSource(7)))
	f := g.Freeze()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if w == 3 {
				f.Nodes()
				return
			}
			for iter := 0; iter < 4; iter++ {
				checkFacadeFreeReads(t, f, g)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if !f.FacadeBuilt() {
		t.Fatal("Nodes() did not build the facade")
	}
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
	if v, _ := f.NodeProp(n.ID, "name"); v != value.Str("acme") {
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

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				total := 0
				for _, l := range f.NodeLabels() {
					total += len(f.NodesByLabel(l))
				}
				for _, n := range f.Nodes() {
					for _, e := range f.Out(n.ID) {
						_ = f.Edge(e.ID)
					}
					for _, e := range f.In(n.ID) {
						_, _ = f.EdgeProp(e.ID, "pct")
					}
					_, _ = f.NodeProp(n.ID, "name")
					_ = f.InDegree(n.ID) + f.OutDegree(n.ID)
				}
				for _, l := range f.EdgeLabels() {
					total += len(f.EdgesByLabel(l))
				}
				if total == 0 && f.NumNodes() > 0 && len(f.NodeLabels()) > 0 {
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
