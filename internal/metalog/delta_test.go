package metalog

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// factsDBEqual asserts that both databases hold the same non-empty relations
// with the same facts at the same positions. Position identity is the point:
// engine derivation order (and therefore query row order) follows relation
// insertion order, so the incremental path must reproduce ExtractFacts'
// ordering exactly, not just its fact set.
func factsDBEqual(t *testing.T, tag string, got, want *vadalog.Database) {
	t.Helper()
	preds := map[string]bool{}
	for _, p := range got.Predicates() {
		if got.Count(p) > 0 {
			preds[p] = true
		}
	}
	for _, p := range want.Predicates() {
		if want.Count(p) > 0 {
			preds[p] = true
		}
	}
	for p := range preds {
		gf, wf := got.Facts(p), want.Facts(p)
		if len(gf) != len(wf) {
			t.Fatalf("%s: relation %s: %d facts vs %d", tag, p, len(gf), len(wf))
		}
		for i := range gf {
			if !reflect.DeepEqual(gf[i], wf[i]) {
				t.Fatalf("%s: relation %s position %d: %v vs %v", tag, p, i, gf[i], wf[i])
			}
		}
	}
}

func deltaBase(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	mustNode := func(labels []string, props pg.Props) *pg.Node { return g.AddNode(labels, props) }
	a := mustNode([]string{"Company"}, pg.Props{"name": value.Str("acme"), "share": value.IntV(10)})
	b := mustNode([]string{"Company", "Bank"}, pg.Props{"name": value.Str("bcorp")})
	c := mustNode([]string{"Person"}, pg.Props{"name": value.Str("carla"), "share": value.FloatV(0.5)})
	if _, err := g.AddEdge(a.ID, b.ID, "owns", pg.Props{"share": value.FloatV(0.2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(c.ID, a.ID, "owns", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(c.ID, b.ID, "controls", nil); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestApplyFactsDeltaOrderPin pins the core contract on a hand-built batch:
// the maintained database is position-for-position identical to a fresh
// ExtractFacts over the mutated view.
func TestApplyFactsDeltaOrderPin(t *testing.T) {
	g := deltaBase(t)
	frozen := g.Freeze()
	cat := FromGraph(frozen)
	db, err := ExtractFacts(frozen, cat)
	if err != nil {
		t.Fatal(err)
	}

	ov := overlay.New(frozen)
	diff, err := ov.Apply([]overlay.Op{
		{Kind: overlay.OpAddNode, Name: "n", Labels: []string{"Company"}, Props: pg.Props{"name": value.Str("newco")}},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: "n"}, To: overlay.Ref{ID: 1}, Label: "owns"},
		{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: 3}}, // cascades both of carla's edges
		{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: 1}, Key: "share", Value: value.IntV(99)},
		// Person's layout is [name, share], which covers node 1's props.
		{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 1}, Label: "Person"},
	})
	if err != nil {
		t.Fatal(err)
	}

	got, ok := ApplyFactsDelta(db, cat, diff)
	if !ok {
		t.Fatal("expected incremental path (batch stays inside the catalog)")
	}
	want, err := ExtractFacts(ov, cat)
	if err != nil {
		t.Fatal(err)
	}
	factsDBEqual(t, "batch", got, want)

	// The input database is untouched.
	orig, err := ExtractFacts(frozen, cat)
	if err != nil {
		t.Fatal(err)
	}
	factsDBEqual(t, "input-preserved", db, orig)

	// An empty diff returns the database unchanged (same pointer is fine).
	same, ok := ApplyFactsDelta(db, cat, overlay.Diff{})
	if !ok || same != db {
		t.Fatal("empty diff must be the identity")
	}
}

// TestApplyFactsDeltaFallback pins when the incremental path must refuse:
// any construct needing columns the catalog lacks.
func TestApplyFactsDeltaFallback(t *testing.T) {
	g := deltaBase(t)
	frozen := g.Freeze()
	cat := FromGraph(frozen)
	db, err := ExtractFacts(frozen, cat)
	if err != nil {
		t.Fatal(err)
	}

	cases := [][]overlay.Op{
		// A node label the catalog has never seen.
		{{Kind: overlay.OpAddNode, Labels: []string{"Exotic"}}},
		// A known label with a property outside its layout.
		{{Kind: overlay.OpAddNode, Labels: []string{"Person"}, Props: pg.Props{"salary": value.IntV(1)}}},
		// A property set gaining a new key on an existing node.
		{{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: 1}, Key: "founded", Value: value.IntV(1900)}},
		// A label gain to a label unknown to the catalog.
		{{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 1}, Label: "Exotic"}},
		// A gain of a known label whose layout lacks the node's properties:
		// Bank's layout is [name], but node 3 also carries share.
		{{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 3}, Label: "Bank"}},
		// An edge label the catalog has never seen.
		{{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: 1}, To: overlay.Ref{ID: 2}, Label: "audits"}},
		// A known edge label with an out-of-layout property.
		{{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: 1}, To: overlay.Ref{ID: 2}, Label: "owns",
			Props: pg.Props{"since": value.IntV(2001)}}},
	}
	for i, ops := range cases {
		ov := overlay.New(frozen)
		diff, err := ov.Apply(ops)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if _, ok := ApplyFactsDelta(db, cat, diff); ok {
			t.Errorf("case %d: expected ok=false (catalog cannot cover the batch)", i)
		}
		// The fallback the caller performs — re-infer and re-extract — must
		// accept the view.
		fullCat := FromGraph(ov)
		if _, err := ExtractFacts(ov, fullCat); err != nil {
			t.Fatalf("case %d: fallback extract: %v", i, err)
		}
	}
}

// TestApplyFactsDeltaSweep drives random mutation lineages, re-checking after
// every batch that incremental maintenance matches a full re-extraction —
// including the catalog-growth fallback a serving lineage would take.
func TestApplyFactsDeltaSweep(t *testing.T) {
	applyFactsDeltaSweep(t, func(t *testing.T, g *pg.Graph) *pg.Frozen { return g.Freeze() })
}

// TestApplyFactsDeltaSweepSnapfile runs the same lineages over a base opened
// from a snapshot file, mmapped where the platform allows: the maintained
// relations keep row ids into the mapping.
func TestApplyFactsDeltaSweepSnapfile(t *testing.T) {
	applyFactsDeltaSweep(t, func(t *testing.T, g *pg.Graph) *pg.Frozen {
		path := filepath.Join(t.TempDir(), "base.snap")
		if _, err := snapfile.WriteFile(path, g.Freeze(), snapfile.BuildInfo{Tool: "sweep"}); err != nil {
			t.Fatal(err)
		}
		snap, err := snapfile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Close() }) //nolint:errcheck // read-only mapping
		return snap.Frozen
	})
}

// applyFactsDeltaSweep runs each seed's lineage twice: over its graph, and
// over the graph plus one edge labeled like the key "share". The bulk load
// behind every freeze interns labels first, so the second base's rows store
// "share" ahead of "name", out of name order, and the copy-on-writes of
// the lineage start from such rows.
func applyFactsDeltaSweep(t *testing.T, base func(*testing.T, *pg.Graph) *pg.Frozen) {
	nodeLabels := []string{"Company", "Person"}
	edgeLabels := []string{"owns", "controls"}
	propKeys := []string{"name", "share"}
	for seed := int64(0); seed < 10; seed++ {
		for _, keyLabel := range []string{"", "share"} {
			t.Run(fmt.Sprintf("seed%d%s", seed, keyLabel), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := pg.New()
				var oids []pg.OID
				for i := 0; i < 8; i++ {
					n := g.AddNode(
						[]string{nodeLabels[rng.Intn(len(nodeLabels))]},
						pg.Props{propKeys[rng.Intn(len(propKeys))]: value.IntV(int64(rng.Intn(50)))})
					oids = append(oids, n.ID)
				}
				// Seed every label and key so the initial catalog is total.
				g.AddNode(nodeLabels, pg.Props{"name": value.Str("x"), "share": value.IntV(1)})
				for i := 0; i < 10; i++ {
					from := oids[rng.Intn(len(oids))]
					to := oids[rng.Intn(len(oids))]
					if _, err := g.AddEdge(from, to, edgeLabels[rng.Intn(len(edgeLabels))],
						pg.Props{"share": value.IntV(int64(rng.Intn(9)))}); err != nil {
						t.Fatal(err)
					}
				}
				for _, l := range edgeLabels {
					g.AddNode(nil, nil) // unlabeled nodes are invisible to extraction
					if _, err := g.AddEdge(oids[0], oids[1], l, pg.Props{"name": value.Str("k"), "share": value.IntV(0)}); err != nil {
						t.Fatal(err)
					}
				}
				if keyLabel != "" {
					g.MustAddEdge(oids[1], oids[0], keyLabel, nil)
				}

				frozen := base(t, g)
				cat := FromGraph(frozen)
				db, err := ExtractFacts(frozen, cat)
				if err != nil {
					t.Fatal(err)
				}
				ov := overlay.New(frozen)

				for batch := 0; batch < 5; batch++ {
					ops := randDeltaOps(rng, ov, nodeLabels, edgeLabels, propKeys)
					diff, err := ov.Apply(ops)
					if err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					next, ok := ApplyFactsDelta(db, cat, diff)
					if !ok {
						// The lineage fallback: re-infer the catalog, full extract.
						cat = FromGraph(ov)
						if next, err = ExtractFacts(ov, cat); err != nil {
							t.Fatalf("batch %d fallback: %v", batch, err)
						}
					}
					want, err := ExtractFacts(ov, cat)
					if err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					factsDBEqual(t, fmt.Sprintf("batch %d", batch), next, want)
					db = next
				}
			})
		}
	}
}

// randDeltaOps emits a valid mutation batch against the overlay's current
// state, occasionally stepping outside the catalog (new property key) to
// exercise the fallback path.
func randDeltaOps(rng *rand.Rand, ov *overlay.Overlay, nodeLabels, edgeLabels, propKeys []string) []overlay.Op {
	var liveNodes, liveEdges []pg.OID
	ov.ScanNodes(func(n *pg.NodeRow) bool { liveNodes = append(liveNodes, n.ID); return true })
	ov.ScanEdges(func(e *pg.EdgeRow) bool { liveEdges = append(liveEdges, e.ID); return true })
	removed := map[pg.OID]bool{}
	pick := func(ids []pg.OID) (pg.OID, bool) {
		alive := ids[:0:0]
		for _, id := range ids {
			if !removed[id] {
				alive = append(alive, id)
			}
		}
		if len(alive) == 0 {
			return 0, false
		}
		return alive[rng.Intn(len(alive))], true
	}
	var ops []overlay.Op
	handles := 0
	for k := 0; k < 4+rng.Intn(5); k++ {
		switch rng.Intn(6) {
		case 0:
			handles++
			ops = append(ops, overlay.Op{Kind: overlay.OpAddNode,
				Name:   fmt.Sprintf("h%d", handles),
				Labels: []string{nodeLabels[rng.Intn(len(nodeLabels))]},
				Props:  pg.Props{propKeys[rng.Intn(len(propKeys))]: value.IntV(int64(rng.Intn(50)))}})
		case 1:
			from, ok1 := pick(liveNodes)
			to, ok2 := pick(liveNodes)
			if ok1 && ok2 {
				ops = append(ops, overlay.Op{Kind: overlay.OpAddEdge,
					From: overlay.Ref{ID: from}, To: overlay.Ref{ID: to},
					Label: edgeLabels[rng.Intn(len(edgeLabels))]})
			}
		case 2:
			if id, ok := pick(liveNodes); ok {
				removed[id] = true
				ov.ScanEdges(func(e *pg.EdgeRow) bool {
					if e.From == id || e.To == id {
						removed[e.ID] = true
					}
					return true
				})
				ops = append(ops, overlay.Op{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: id}})
			}
		case 3:
			if id, ok := pick(liveEdges); ok {
				removed[id] = true
				ops = append(ops, overlay.Op{Kind: overlay.OpRemoveEdge, Edge: id})
			}
		case 4:
			if id, ok := pick(liveNodes); ok {
				key := propKeys[rng.Intn(len(propKeys))]
				if rng.Intn(10) == 0 {
					key = fmt.Sprintf("extra%d", rng.Intn(2)) // outside the catalog
				}
				ops = append(ops, overlay.Op{Kind: overlay.OpSetNodeProp,
					Node: overlay.Ref{ID: id}, Key: key, Value: value.IntV(int64(rng.Intn(50)))})
			}
		case 5:
			if id, ok := pick(liveNodes); ok {
				ops = append(ops, overlay.Op{Kind: overlay.OpAddLabel,
					Node: overlay.Ref{ID: id}, Label: nodeLabels[rng.Intn(len(nodeLabels))]})
			}
		}
	}
	return ops
}

// repeatLabels is a view whose node rows list their first label twice — what
// a pg.View implementation that does not normalize label lists may hand out.
type repeatLabels struct{ pg.View }

func (v repeatLabels) ScanNodes(visit func(*pg.NodeRow) bool) {
	v.View.ScanNodes(func(r *pg.NodeRow) bool {
		cp := *r
		if len(r.Labels) > 0 {
			cp.Labels = append(append([]string(nil), r.Labels...), r.Labels[0])
		}
		return visit(&cp)
	})
}

// TestExtractFactsRepeatedLabel: extraction keeps no dedup table, so a node
// that repeats a label must still extract exactly one fact per label.
func TestExtractFactsRepeatedLabel(t *testing.T) {
	g := deltaBase(t)
	cat := FromGraph(g)
	want, err := ExtractFacts(g, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractFacts(repeatLabels{g}, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count("Company") != 2 || got.Count("Bank") != 1 || got.Count("Person") != 1 {
		t.Fatalf("facts per label: Company %d, Bank %d, Person %d", got.Count("Company"), got.Count("Bank"), got.Count("Person"))
	}
	factsDBEqual(t, "repeated label", got, want)
}

// TestApplyFactsDeltaMergeOrder drives the sorted merge through the diffs the
// overlay never produces in one lineage but the contract covers: an OID
// removed by one batch and added again by a later one (it must land back at
// its ascending position, not at the end), a node repeating a label, and a
// ChangedNodes entry whose label set changes, so that the fact leaves one
// relation and enters another. After every step the maintained database is
// position-for-position a fresh extraction of the same state.
func TestApplyFactsDeltaMergeOrder(t *testing.T) {
	g := deltaBase(t) // nodes 1..3 (acme, bcorp, carla), edges 4..6
	cat := FromGraph(g)
	db, err := ExtractFacts(g, cat)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[pg.OID]*pg.NodeRow{}
	for _, n := range g.Nodes() {
		nodes[n.ID] = &pg.NodeRow{ID: n.ID, Labels: n.Labels, Props: pg.PropListOf(n.Props)}
	}
	edges := map[pg.OID]*pg.EdgeRow{}
	for _, e := range g.Edges() {
		edges[e.ID] = &pg.EdgeRow{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: pg.PropListOf(e.Props)}
	}
	step := func(tag string, diff overlay.Diff) {
		t.Helper()
		for _, n := range diff.RemovedNodes {
			delete(nodes, n.ID)
		}
		for _, e := range diff.RemovedEdges {
			delete(edges, e.ID)
		}
		for _, n := range diff.AddedNodes {
			nodes[n.ID] = n
		}
		for _, c := range diff.ChangedNodes {
			nodes[c.After.ID] = c.After
		}
		for _, e := range diff.AddedEdges {
			edges[e.ID] = e
		}
		ref := pg.New()
		for id := pg.OID(1); id <= 6; id++ {
			if n := nodes[id]; n != nil {
				if _, err := ref.AddNodeWithID(n.ID, n.Labels, pg.PropMap(n.Props)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for id := pg.OID(1); id <= 6; id++ {
			if e := edges[id]; e != nil {
				if _, err := ref.AddEdgeWithID(e.ID, e.From, e.To, e.Label, pg.PropMap(e.Props)); err != nil {
					t.Fatal(err)
				}
			}
		}
		next, ok := ApplyFactsDelta(db, cat, diff)
		if !ok {
			t.Fatalf("%s: expected the incremental path", tag)
		}
		want, err := ExtractFacts(ref, cat)
		if err != nil {
			t.Fatal(err)
		}
		factsDBEqual(t, tag, next, want)
		db = next
	}

	// bcorp (2) goes, with the edges into it: owns 4 and controls 6.
	step("remove", overlay.Diff{
		RemovedNodes: []*pg.NodeRow{nodes[2]},
		RemovedEdges: []*pg.EdgeRow{edges[4], edges[6]},
	})
	if db.Count("Bank") != 0 || db.Count("owns") != 1 {
		t.Fatalf("after remove: Bank %d, owns %d", db.Count("Bank"), db.Count("owns"))
	}
	// The same OIDs come back: node 2 between 1 and nothing in Company,
	// edge 4 ahead of edge 5 in owns. The node repeats a label.
	step("re-add", overlay.Diff{
		AddedNodes: []*pg.NodeRow{{ID: 2, Labels: []string{"Bank", "Company", "Bank"}, Props: pg.PropList{{Key: "name", Val: value.Str("bcorp2")}}}},
		AddedEdges: []*pg.EdgeRow{{ID: 4, From: 1, To: 2, Label: "owns", Props: pg.PropList{{Key: "share", Val: value.FloatV(0.9)}}}},
	})
	if f := db.Facts("owns"); len(f) != 2 || f[0][0].I != 4 || db.Count("Bank") != 1 {
		t.Fatalf("after re-add: owns %v, Bank %d", f, db.Count("Bank"))
	}
	// carla (3) turns from a Person into a Company and changes a property.
	// Relations the diff does not name pass to the next generation as they
	// are, indexes and all.
	owns, bank := db.Relation("owns"), db.Relation("Bank")
	step("relabel", overlay.Diff{ChangedNodes: []overlay.NodeChange{{
		Before: nodes[3],
		After:  &pg.NodeRow{ID: 3, Labels: []string{"Company"}, Props: pg.PropList{{Key: "name", Val: value.Str("carla ltd")}}},
	}}})
	if db.Count("Person") != 0 || db.Count("Company") != 3 {
		t.Fatalf("after relabel: Person %d, Company %d", db.Count("Person"), db.Count("Company"))
	}
	if db.Relation("owns") != owns || db.Relation("Bank") != bank {
		t.Fatal("an untouched relation was rebuilt instead of shared")
	}
}

// TestOverlayGenerationsShareRows: an overlay and its Clone share their rows
// by pointer, and the facts of a generation reference those rows. Readers
// scan generation N and extract and read its facts while Clone().Apply
// builds generation N+1 from it and ApplyFactsDelta maintains N's database
// into N+1's: every reader must see N as it was before the writer started.
// It is meant to run under the race detector (make test-race).
func TestOverlayGenerationsShareRows(t *testing.T) {
	frozen := deltaBase(t).Freeze()
	cat := FromGraph(frozen)
	gen := overlay.New(frozen)
	db, err := ExtractFacts(gen, cat)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	render := func(ov *overlay.Overlay) string {
		var b strings.Builder
		ov.ScanNodes(func(r *pg.NodeRow) bool { fmt.Fprintf(&b, "n%d%v%v;", r.ID, r.Labels, r.Props); return true })
		ov.ScanEdges(func(r *pg.EdgeRow) bool { fmt.Fprintf(&b, "e%d%s%v;", r.ID, r.Label, r.Props); return true })
		return b.String()
	}
	for round := 0; round < 8; round++ {
		wantScan, wantFacts, readCat := render(gen), db.Dump(), cat
		ops := randDeltaOps(rng, gen, []string{"Company", "Person"}, []string{"owns", "controls"}, []string{"name", "share"})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				facts, err := ExtractFacts(gen, readCat)
				if err != nil {
					t.Error(err)
					return
				}
				if got := render(gen); got != wantScan {
					t.Errorf("round %d: a reader scanned %s, want %s", round, got, wantScan)
				}
				if got := facts.Dump(); got != wantFacts {
					t.Errorf("round %d: a reader extracted\n%s\nwant\n%s", round, got, wantFacts)
				}
			}()
		}
		next := gen.Clone()
		diff, err := next.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		nextDB, ok := ApplyFactsDelta(db, cat, diff)
		if !ok {
			cat = FromGraph(next)
			if nextDB, err = ExtractFacts(next, cat); err != nil {
				t.Fatal(err)
			}
		}
		if got := db.Dump(); got != wantFacts {
			t.Errorf("round %d: maintenance changed the database it started from", round)
		}
		wg.Wait()
		gen, db = next, nextDB
	}
}
