package metalog

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// The row-backed relations: ExtractFacts reads a frozen graph's columns in
// place, and the tuples it serves must not depend on the storage form they
// are read from.

// rowsNode and rowsEdge declare the content of rowsGraph once, so the same
// graph can be built through pg.Graph and through pg.BulkLoader.
type rowsNode struct {
	id     pg.OID
	labels []string
	props  pg.Props
}

type rowsEdge struct {
	id, from, to pg.OID
	label        string
	props        pg.Props
}

// rowsGraph covers what a relation's reading of the columns must get right:
// a multi-label node, nodes missing layout properties, an unlabeled node, a
// property key that is also a label (so its symbol sorts it ahead of keys
// that precede it by name, and rows do not store keys in name order), an
// edge missing its property, an unlabeled edge, an edge whose label also
// names nodes with the same arity, and a Float and an Int holding equal
// numbers.
var (
	rowsNodes = []rowsNode{
		{1, []string{"Company", "Listed"}, pg.Props{"name": value.Str("a"), "cap": value.FloatV(2), "rank": value.IntV(1)}},
		{2, []string{"Company"}, pg.Props{"name": value.Str("b"), "cap": value.IntV(2)}},
		{3, []string{"Person"}, pg.Props{"name": value.Str("p"), "age": value.IntV(30)}},
		{4, nil, pg.Props{"name": value.Str("loner")}},
		{5, []string{"Listed", "rank"}, pg.Props{"rank": value.IntV(2), "cap": value.FloatV(0.5)}},
		{6, []string{"Person"}, pg.Props{}},
	}
	rowsEdges = []rowsEdge{
		{7, 1, 2, "OWNS", pg.Props{"pct": value.FloatV(0.5)}},
		{8, 3, 1, "WORKS_FOR", nil},
		{9, 2, 1, "", pg.Props{"pct": value.FloatV(0.1)}},
		{10, 1, 1, "OWNS", nil},
		{11, 2, 3, "Person", nil},
		{12, 5, 2, "OWNS", pg.Props{"pct": value.IntV(1)}},
	}
)

func rowsGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	for _, n := range rowsNodes {
		if _, err := g.AddNodeWithID(n.id, n.labels, n.props); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range rowsEdges {
		if _, err := g.AddEdgeWithID(e.id, e.from, e.to, e.label, e.props); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// bulkLoaded builds rowsGraph through the bulk loader, one batch per
// construct.
func bulkLoaded(t *testing.T) *pg.Frozen {
	t.Helper()
	ld := pg.NewBulkLoader(2)
	for _, n := range rowsNodes {
		keys := sortedKeys(n.props)
		b := pg.NodeBatch{Labels: n.labels, Keys: keys, OIDs: []pg.OID{n.id}}
		for _, k := range keys {
			b.Vals = append(b.Vals, n.props[k])
		}
		if err := ld.AddNodes(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range rowsEdges {
		keys := sortedKeys(e.props)
		b := pg.EdgeBatch{Label: e.label, Keys: keys, OIDs: []pg.OID{e.id}, From: []pg.OID{e.from}, To: []pg.OID{e.to}}
		for _, k := range keys {
			b.Vals = append(b.Vals, e.props[k])
		}
		if err := ld.AddEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	f, err := ld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sortedKeys(p pg.Props) []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// wideCatalog is the graph's catalog plus columns and a label no construct
// carries — the catalog a /mutate fallback re-infers from an overlay whose
// delta introduced them, applied to the base's rows.
func wideCatalog(g pg.View) *Catalog {
	cat := FromGraph(g)
	cat.EnsureNode("Company", "founded", "aaa")
	cat.EnsureNode("Ghost", "x")
	cat.EnsureEdge("OWNS", "since")
	return cat
}

// sameTuples requires equal predicates and arities, an equal Dump, and
// deep-equal tuples at every position.
func sameTuples(t *testing.T, tag string, got, want *vadalog.Database) {
	t.Helper()
	if g, w := got.Predicates(), want.Predicates(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: predicates %v, want %v", tag, g, w)
	}
	if g, w := got.Dump(), want.Dump(); g != w {
		t.Fatalf("%s: dumps diverge:\n%s\nwant:\n%s", tag, g, w)
	}
	for _, p := range want.Predicates() {
		gr, wr := got.Relation(p), want.Relation(p)
		if gr.Arity != wr.Arity || gr.Len() != wr.Len() {
			t.Fatalf("%s: %s has arity %d and %d facts, want %d and %d", tag, p, gr.Arity, gr.Len(), wr.Arity, wr.Len())
		}
		for i := 0; i < wr.Len(); i++ {
			if g, w := gr.At(i), wr.At(i); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: %s position %d: %v, want %v", tag, p, i, g, w)
			}
		}
	}
}

func mustExtract(t *testing.T, g pg.View, cat *Catalog) *vadalog.Database {
	t.Helper()
	db, err := ExtractFacts(g, cat)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExtractFactsAcrossStorageForms: a *pg.Graph (every tuple
// materialized), its Freeze, an mmapped snapfile round trip and a
// bulk-loaded snapshot of the same content (row ids into the columns), and a
// view repeating labels extract to the same tuples at the same positions,
// under the graph's own catalog and under a wider one; an overlay with
// pending batches (base rows minus tombstones plus materialized delta)
// extracts like its compaction.
func TestExtractFactsAcrossStorageForms(t *testing.T) {
	g := rowsGraph(t)
	f := g.Freeze()
	path := filepath.Join(t.TempDir(), "rows.snap")
	if _, err := snapfile.WriteFile(path, f, snapfile.BuildInfo{Tool: "rows"}); err != nil {
		t.Fatal(err)
	}
	snap, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close() //nolint:errcheck // read-only mapping
	if !snap.Mapped() {
		t.Log("snapshot not mmapped on this platform; comparing the copied load")
	}
	forms := map[string]pg.View{
		"frozen":   f,
		"snapfile": snap.Frozen,
		"bulk":     bulkLoaded(t),
		"repeated": repeatLabels{g},
	}
	for catName, cat := range map[string]*Catalog{"data": FromGraph(g), "wide": wideCatalog(g)} {
		want := mustExtract(t, g, cat)
		if want.Count("Person") != 3 || want.Count("OWNS") != 3 || want.Count("") != 1 || want.Relation("Ghost") != nil {
			t.Fatalf("%s catalog: the reference extraction lost a construct:\n%s", catName, want.Dump())
		}
		for name, v := range forms {
			sameTuples(t, catName+" catalog, "+name, mustExtract(t, v, cat), want)
		}
	}

	for _, base := range []*pg.Frozen{f, snap.Frozen, forms["bulk"].(*pg.Frozen)} {
		ov := overlay.New(base)
		for _, ops := range [][]overlay.Op{
			{
				{Kind: overlay.OpAddNode, Name: "n", Labels: []string{"Company", "Listed"}, Props: pg.Props{"name": value.Str("c"), "rank": value.IntV(3)}},
				{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: "n"}, To: overlay.Ref{ID: 1}, Label: "OWNS", Props: pg.Props{"pct": value.FloatV(0.2)}},
				{Kind: overlay.OpRemoveEdge, Edge: 7},
			},
			{
				{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: 2}, Key: "cap", Value: value.FloatV(2)},
				{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 3}, Label: "Listed"},
				{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: 6}},
				{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: 5}, To: overlay.Ref{ID: 4}, Label: "", Props: pg.Props{"pct": value.IntV(0)}},
			},
		} {
			if _, err := ov.Apply(ops); err != nil {
				t.Fatal(err)
			}
		}
		compacted, err := ov.Compact()
		if err != nil {
			t.Fatal(err)
		}
		for catName, cat := range map[string]*Catalog{"data": FromGraph(ov), "wide": wideCatalog(ov)} {
			sameTuples(t, catName+" catalog, overlay", mustExtract(t, ov, cat), mustExtract(t, compacted, cat))
		}
	}
}

// TestExtractFactsCopiesNothing is the memory gate of the row-backed
// relations: over a frozen graph, extraction allocates row ids and a few
// headers per relation, not tuples — under 16 bytes per extracted fact, where
// copying the facts cost ~150.
func TestExtractFactsCopiesNothing(t *testing.T) {
	g := pg.New()
	var ids []pg.OID
	for i := 0; i < 4000; i++ {
		labels := []string{"Company"}
		if i%3 == 0 {
			labels = append(labels, "Listed")
		}
		ids = append(ids, g.AddNode(labels, pg.Props{"name": value.Str(fmt.Sprint(i)), "cap": value.FloatV(float64(i))}).ID)
	}
	for i := range ids {
		for d := 1; d <= 3; d++ {
			g.MustAddEdge(ids[i], ids[(i+d)%len(ids)], "OWNS", pg.Props{"pct": value.FloatV(0.1)})
		}
	}
	f := g.Freeze()
	cat := FromGraph(f)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := ExtractFacts(f, cat)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	facts := db.TotalFacts()
	if perFact := float64(after.TotalAlloc-before.TotalAlloc) / float64(facts); facts != 4000+1334+12000 || perFact >= 16 {
		t.Fatalf("extracted %d facts allocating %.1f B each; want 17334 under 16 B", facts, perFact)
	}
}

// TestListRowsServeFacts: a relation read from property lists serves, cell
// for cell, the facts of the layout for the same constructs — full and
// sparse lists, a key outside the layout, a nil list, an edge's three
// identifiers — and the engine joins over it like over any sealed relation.
func TestListRowsServeFacts(t *testing.T) {
	cat := NewCatalog()
	cat.EnsureNode("Company", "cap", "name")
	cat.EnsureEdge("OWNS", "pct")
	nodes := []pg.PropList{
		{{Key: "name", Val: value.Str("a")}, {Key: "cap", Val: value.FloatV(1)}},
		{{Key: "name", Val: value.Str("b")}, {Key: "other", Val: value.IntV(7)}},
		nil,
	}
	edges := []pg.PropList{{{Key: "pct", Val: value.FloatV(0.6)}}, nil}
	companies, owns := cat.NodeRows("Company"), cat.EdgeRows("OWNS")
	for i, props := range nodes {
		companies.Add(props, pg.OID(i+1))
	}
	for i, props := range edges {
		owns.Add(props, pg.OID(10+i), pg.OID(i+1), pg.OID(i+2))
	}
	want := vadalog.NewDatabase()
	want.MustAddFact("Company", value.IntV(1), value.FloatV(1), value.Str("a"))
	want.MustAddFact("Company", value.IntV(2), Missing, value.Str("b"))
	want.MustAddFact("Company", value.IntV(3), Missing, Missing)
	want.MustAddFact("OWNS", value.IntV(10), value.IntV(1), value.IntV(2), value.FloatV(0.6))
	want.MustAddFact("OWNS", value.IntV(11), value.IntV(2), value.IntV(3), Missing)
	if companies.Arity() != cat.NodeArity("Company") || owns.Arity() != cat.EdgeArity("OWNS") {
		t.Fatalf("arities %d and %d, want %d and %d", companies.Arity(), owns.Arity(), cat.NodeArity("Company"), cat.EdgeArity("OWNS"))
	}
	db := vadalog.NewDatabase()
	db.InstallRows("Company", companies.Arity(), companies)
	db.InstallRows("OWNS", owns.Arity(), owns)
	if db.Dump() != want.Dump() {
		t.Fatalf("list rows serve\n%s\nwant\n%s", db.Dump(), want.Dump())
	}
	q, err := PrepareQuery(cat, `(x: Company; name: n) [: OWNS] (y: Company)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.QueryDB(context.Background(), db, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("query over list rows = %v, want 2 rows", rows)
	}
}

// TestSealedConcurrentQueriesOnColumns races 16 queries over one extracted
// database none of whose indexes exist yet, every relation a list of row ids
// into frozen columns: each query forces the same lazily built indexes
// (Company by name, OWNS by source, Company by OID), and every answer must
// equal the written-order answer over the mutable graph.
func TestSealedConcurrentQueriesOnColumns(t *testing.T) {
	g := pg.New()
	var ids []pg.OID
	for i := 0; i < 300; i++ {
		ids = append(ids, g.AddNode([]string{"Company"}, pg.Props{"name": value.Str(fmt.Sprintf("c%d", i))}).ID)
	}
	for i := range ids {
		for d := 1; d <= 3; d++ {
			g.MustAddEdge(ids[i], ids[(i+d)%len(ids)], "OWNS", pg.Props{"pct": value.FloatV(float64(d) / 10)})
		}
	}
	f := g.Freeze()
	cat := FromGraph(f)
	db := mustExtract(t, f, cat)
	const queries = 16
	patterns := make([]string, queries)
	want := make([]string, queries)
	for i := range patterns {
		patterns[i] = fmt.Sprintf(`(x: Company; name: "c%d") [: OWNS; pct: p] (y: Company; name: n)`, 7*i)
		rows, err := Query(g, patterns[i], vadalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want[i] = renderRows(rows); len(rows) != 3 {
			t.Fatalf("query %d: %s", i, want[i])
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prep, err := PrepareQuery(cat, patterns[i], nil)
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			rows, err := prep.QueryDB(context.Background(), db, vadalog.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if got := renderRows(rows); got != want[i] {
				t.Errorf("query %d: got\n%s\nwant\n%s", i, got, want[i])
			}
		}()
	}
	close(start)
	wg.Wait()
}
