package overlay_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/pg/pgtest"
	"repro/internal/snapfile"
	"repro/internal/sortedset"
	"repro/internal/value"
)

var (
	nodeLabelPool = []string{"Company", "Person", "Account", "Branch"}
	edgeLabelPool = []string{"owns", "controls", "holds"}
	propKeyPool   = []string{"name", "share", "active"}
)

func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(4) {
	case 0:
		return value.Str(fmt.Sprintf("s%d", rng.Intn(50)))
	case 1:
		return value.IntV(int64(rng.Intn(100)))
	case 2:
		return value.FloatV(float64(rng.Intn(100)) / 4)
	default:
		return value.BoolV(rng.Intn(2) == 0)
	}
}

func randLabels(rng *rand.Rand) []string {
	var out []string
	for _, l := range nodeLabelPool {
		if rng.Intn(3) == 0 {
			out = append(out, l)
		}
	}
	return out
}

func randProps(rng *rand.Rand) pg.Props {
	p := pg.Props{}
	for _, k := range propKeyPool {
		if rng.Intn(2) == 0 {
			p[k] = randValue(rng)
		}
	}
	return p
}

// randBase builds a random source graph.
func randBase(rng *rand.Rand) *pg.Graph {
	g := pg.New()
	n := 5 + rng.Intn(20)
	var ids []pg.OID
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddNode(randLabels(rng), randProps(rng)).ID)
	}
	for i := 0; i < 2*n; i++ {
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		g.MustAddEdge(from, to, edgeLabelPool[rng.Intn(len(edgeLabelPool))], randProps(rng))
	}
	return g
}

// randOps generates one valid mutation batch against the current reference
// graph (the ops are then applied to both representations).
func randOps(rng *rand.Rand, ref *pg.Graph) []overlay.Op {
	var ops []overlay.Op
	// Track nodes/edges that exist as the batch unfolds; start from ref.
	live := map[pg.OID]bool{}
	for _, n := range ref.Nodes() {
		live[n.ID] = true
	}
	liveEdges := map[pg.OID]bool{}
	for _, e := range ref.Edges() {
		liveEdges[e.ID] = true
	}
	pick := func(m map[pg.OID]bool) (pg.OID, bool) {
		var ids []pg.OID
		for id := range m {
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return 0, false
		}
		sortedset.Sort(ids)
		return ids[rng.Intn(len(ids))], true
	}
	names := 0
	handles := map[string]bool{}
	k := 1 + rng.Intn(8)
	for i := 0; i < k; i++ {
		switch rng.Intn(10) {
		case 0, 1: // add node, sometimes with a handle
			op := overlay.Op{Kind: overlay.OpAddNode, Labels: randLabels(rng), Props: randProps(rng)}
			if rng.Intn(2) == 0 {
				op.Name = fmt.Sprintf("h%d", names)
				handles[op.Name] = true
				names++
			}
			ops = append(ops, op)
		case 2, 3: // add edge between existing nodes or fresh handles
			var from, to overlay.Ref
			if id, ok := pick(live); ok && rng.Intn(3) > 0 {
				from = overlay.Ref{ID: id}
			} else if len(handles) > 0 {
				for h := range handles {
					from = overlay.Ref{Name: h}
					break
				}
			} else {
				continue
			}
			if id, ok := pick(live); ok {
				to = overlay.Ref{ID: id}
			} else {
				continue
			}
			ops = append(ops, overlay.Op{Kind: overlay.OpAddEdge, From: from, To: to,
				Label: edgeLabelPool[rng.Intn(len(edgeLabelPool))], Props: randProps(rng)})
		case 4: // remove node (cascades onto its ref-known incident edges)
			if id, ok := pick(live); ok {
				delete(live, id)
				for _, e := range ref.Out(id) {
					delete(liveEdges, e.ID)
				}
				for _, e := range ref.In(id) {
					delete(liveEdges, e.ID)
				}
				ops = append(ops, overlay.Op{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: id}})
			}
		case 5: // remove edge
			if id, ok := pick(liveEdges); ok {
				delete(liveEdges, id)
				ops = append(ops, overlay.Op{Kind: overlay.OpRemoveEdge, Edge: id})
			}
		case 6, 7: // set prop
			if id, ok := pick(live); ok {
				ops = append(ops, overlay.Op{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: id},
					Key: propKeyPool[rng.Intn(len(propKeyPool))], Value: randValue(rng)})
			}
		case 8: // delete prop
			if id, ok := pick(live); ok {
				ops = append(ops, overlay.Op{Kind: overlay.OpDelNodeProp, Node: overlay.Ref{ID: id},
					Key: propKeyPool[rng.Intn(len(propKeyPool))]})
			}
		case 9: // add label
			if id, ok := pick(live); ok {
				ops = append(ops, overlay.Op{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: id},
					Label: nodeLabelPool[rng.Intn(len(nodeLabelPool))]})
			}
		}
	}
	return ops
}

// applyToGraph replays a batch on a mutable pg.Graph, the reference
// semantics the overlay must match (including OID allocation).
func applyToGraph(g *pg.Graph, ops []overlay.Op) error {
	names := map[string]pg.OID{}
	for _, op := range ops {
		if err := applyOpToGraph(g, op, names); err != nil {
			return err
		}
	}
	return nil
}

// applyOpToGraph replays one op of a batch whose handles names binds.
func applyOpToGraph(g *pg.Graph, op overlay.Op, names map[string]pg.OID) error {
	resolve := func(r overlay.Ref) pg.OID {
		if r.Name != "" {
			return names[r.Name]
		}
		return r.ID
	}
	switch op.Kind {
	case overlay.OpAddNode:
		n := g.AddNode(op.Labels, op.Props)
		if op.Name != "" {
			names[op.Name] = n.ID
		}
	case overlay.OpAddEdge:
		if _, err := g.AddEdge(resolve(op.From), resolve(op.To), op.Label, op.Props); err != nil {
			return err
		}
	case overlay.OpRemoveNode:
		return g.RemoveNode(resolve(op.Node))
	case overlay.OpRemoveEdge:
		return g.RemoveEdge(op.Edge)
	case overlay.OpSetNodeProp:
		return g.SetNodeProp(resolve(op.Node), op.Key, op.Value)
	case overlay.OpDelNodeProp:
		delete(g.Node(resolve(op.Node)).Props, op.Key)
	case overlay.OpAddLabel:
		return g.AddLabel(resolve(op.Node), op.Label)
	default:
		return fmt.Errorf("unknown kind %q", op.Kind)
	}
	return nil
}

func nodeEqual(a, b *pg.Node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.ID != b.ID || len(a.Labels) != len(b.Labels) || len(a.Props) != len(b.Props) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	for k, v := range a.Props {
		bv, ok := b.Props[k]
		if !ok || v.K != bv.K || v.Canonical() != bv.Canonical() {
			return false
		}
	}
	return true
}

func edgeEqual(a, b *pg.Edge) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.ID != b.ID || a.Label != b.Label || a.From != b.From || a.To != b.To || len(a.Props) != len(b.Props) {
		return false
	}
	for k, v := range a.Props {
		bv, ok := b.Props[k]
		if !ok || v.K != bv.K || v.Canonical() != bv.Canonical() {
			return false
		}
	}
	return true
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareViews checks every read of got against the mutable graph want —
// sizes, point lookups, degrees counted off the edge scan, label sets and
// the row scans, the same invariant set the frozen-vs-mutable differential
// sweep relies on.
func compareViews(t *testing.T, got pgtest.PointView, want *pg.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("sizes: got %d/%d want %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	outDeg, inDeg := map[pg.OID]int{}, map[pg.OID]int{}
	got.ScanEdges(func(r *pg.EdgeRow) bool {
		outDeg[r.From]++
		inDeg[r.To]++
		return true
	})
	wn, we := want.Nodes(), want.Edges()
	for _, n := range wn {
		if !nodeEqual(got.Node(n.ID), n) {
			t.Fatalf("Node(%d) mismatch", n.ID)
		}
		if outDeg[n.ID] != len(want.Out(n.ID)) || inDeg[n.ID] != len(want.In(n.ID)) {
			t.Fatalf("degrees of %d: %d/%d vs %d/%d", n.ID,
				outDeg[n.ID], inDeg[n.ID], len(want.Out(n.ID)), len(want.In(n.ID)))
		}
	}
	for _, e := range we {
		if !edgeEqual(got.Edge(e.ID), e) {
			t.Fatalf("Edge(%d) mismatch", e.ID)
		}
	}
	if g, w := pgtest.NodeLabels(got), pgtest.NodeLabels(want); !stringsEqual(g, w) {
		t.Fatalf("node labels: %v vs %v", g, w)
	}
	if g, w := pgtest.EdgeLabels(got), pgtest.EdgeLabels(want); !stringsEqual(g, w) {
		t.Fatalf("edge labels: %v vs %v", g, w)
	}
	// Absent OIDs resolve to nothing on both sides.
	const absent = pg.OID(1 << 40)
	if got.Node(absent) != nil || got.Edge(absent) != nil || outDeg[absent] != 0 || inDeg[absent] != 0 {
		t.Fatal("absent OID must resolve to nothing")
	}

	// Each side's row scans present its point lookups: with the sizes and
	// lookups above, got's scans list want's constructs in order.
	pgtest.CheckScans(t, got)
	pgtest.CheckScans(t, want)
}

// TestOverlayPropertySweep: 25 seeds of randomized mutation batches applied
// to an overlay and to the equivalent mutable graph; every pg.View read and
// the compaction output must agree, with Compact() byte-identical under the
// snapshot encoder, and each batch's Diff must be the graph's net change.
// Each seed also runs over its base plus one edge labeled like the key
// "share": the bulk load behind Freeze interns labels first, so that base's
// rows store "share" ahead of the other keys, out of name order, and every
// copy-on-write starts from such a row.
func TestOverlayPropertySweep(t *testing.T) {
	info := snapfile.BuildInfo{Tool: "overlay-test", Source: "prop", CreatedUnix: 1}
	for seed := int64(0); seed < 25; seed++ {
		for _, keyLabel := range []string{"", "share"} {
			t.Run(fmt.Sprintf("seed%d%s", seed, keyLabel), func(t *testing.T) {
				overlaySweep(t, seed, keyLabel, info)
			})
		}
	}
}

func overlaySweep(t *testing.T, seed int64, keyLabel string, info snapfile.BuildInfo) {
	rng := rand.New(rand.NewSource(seed))
	src := randBase(rng)
	if keyLabel != "" {
		src.MustAddEdge(1, 1, keyLabel, nil)
	}
	base := src.Freeze()
	ov := overlay.New(base)
	ref := src.Clone()
	batches := 3 + rng.Intn(4)
	for b := 0; b < batches; b++ {
		ops := randOps(rng, ref)
		before := stateOf(ref)
		diff, err := ov.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		names := map[string]pg.OID{}
		for _, op := range ops {
			if err := applyOpToGraph(ref, op, names); err != nil {
				t.Fatalf("batch %d (reference): %v", b, err)
			}
		}
		checkDiff(t, b, diff, names, before, ref)
		compareViews(t, ov, ref)
	}

	// Compact folds the delta into a snapshot byte-identical to
	// freezing the equivalently-mutated graph.
	compacted, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	compareViews(t, compacted, ref)
	gotBytes, err := snapfile.Encode(compacted, info)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := snapfile.Encode(ref.Freeze(), info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("Compact() encoding diverges from direct freeze (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}

	// A second overlay generation over the compacted base keeps the
	// equivalence (the LSM lifecycle composes). The reference resets
	// to a thawed copy: compaction, like Thaw, restarts the OID
	// allocator just above the surviving maximum, deliberately
	// forgetting allocator history of removed constructs.
	ov2 := overlay.New(compacted)
	ref = compacted.Thaw()
	ops := randOps(rng, ref)
	if _, err := ov2.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if err := applyToGraph(ref, ops); err != nil {
		t.Fatal(err)
	}
	compareViews(t, ov2, ref)
}

// TestOverlayCloneIsolation: mutating an overlay never disturbs a clone
// taken earlier (the server's swap discipline depends on it).
func TestOverlayCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := randBase(rng)
	base := src.Freeze()
	ov := overlay.New(base)
	ref := src.Clone()
	ops := randOps(rng, ref)
	if _, err := ov.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if err := applyToGraph(ref, ops); err != nil {
		t.Fatal(err)
	}

	snap := ov.Clone()
	refAtClone := ref.Clone()
	for i := 0; i < 5; i++ {
		more := randOps(rng, ref)
		if _, err := ov.Apply(more); err != nil {
			t.Fatal(err)
		}
		if err := applyToGraph(ref, more); err != nil {
			t.Fatal(err)
		}
	}
	compareViews(t, ov, ref)
	compareViews(t, snap, refAtClone) // the clone still shows the old state
}

// TestOverlayRemoveNodeCascade: removing a base node drops every incident
// edge once, as Graph.RemoveNode does, when the node carries a base
// self-loop, a base edge an earlier batch removed, and edges added in the
// overlay in both directions, an added self-loop among them.
func TestOverlayRemoveNodeCascade(t *testing.T) {
	src := pg.New()
	a := src.AddNode([]string{"A"}, nil)
	b := src.AddNode([]string{"B"}, nil)
	c := src.AddNode([]string{"C"}, nil)
	src.MustAddEdge(a.ID, a.ID, "owns", nil)
	removed := src.MustAddEdge(a.ID, b.ID, "controls", nil)
	src.MustAddEdge(c.ID, a.ID, "holds", nil)
	src.MustAddEdge(b.ID, c.ID, "owns", nil)
	ov := overlay.New(src.Freeze())
	ref := src.Clone()
	apply := func(ops []overlay.Op) overlay.Diff {
		t.Helper()
		diff, err := ov.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := applyToGraph(ref, ops); err != nil {
			t.Fatal(err)
		}
		compareViews(t, ov, ref)
		return diff
	}

	apply([]overlay.Op{
		{Kind: overlay.OpRemoveEdge, Edge: removed.ID},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: a.ID}, To: overlay.Ref{ID: c.ID}, Label: "owns"},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: b.ID}, To: overlay.Ref{ID: a.ID}, Label: "holds"},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: a.ID}, To: overlay.Ref{ID: a.ID}, Label: "controls"},
	})
	var want []pg.OID
	for _, e := range ref.Edges() {
		if e.From == a.ID || e.To == a.ID {
			want = append(want, e.ID)
		}
	}
	diff := apply([]overlay.Op{{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: a.ID}}})
	var got []pg.OID
	for _, e := range diff.RemovedEdges {
		got = append(got, e.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(want) != 5 {
		t.Fatalf("removing node %d dropped edges %v, want %v", a.ID, got, want)
	}
	if len(diff.RemovedNodes) != 1 || diff.RemovedNodes[0].ID != a.ID {
		t.Fatalf("RemovedNodes = %+v", diff.RemovedNodes)
	}
}

// TestOverlayDiff pins the net-effect reporting a maintenance layer
// consumes.
func TestOverlayDiff(t *testing.T) {
	src := pg.New()
	a := src.AddNode([]string{"A"}, pg.Props{"name": value.Str("a")})
	b := src.AddNode([]string{"B"}, nil)
	e := src.MustAddEdge(a.ID, b.ID, "owns", nil)
	base := src.Freeze()
	ov := overlay.New(base)

	diff, err := ov.Apply([]overlay.Op{
		{Kind: overlay.OpAddNode, Name: "n", Labels: []string{"C"}},
		{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: a.ID}, To: overlay.Ref{Name: "n"}, Label: "holds"},
		{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: a.ID}, Key: "name", Value: value.Str("a2")},
		{Kind: overlay.OpRemoveEdge, Edge: e.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.AddedNodes) != 1 || len(diff.AddedNodes[0].Labels) == 0 || diff.AddedNodes[0].Labels[0] != "C" {
		t.Fatalf("AddedNodes = %v", diff.AddedNodes)
	}
	if len(diff.AddedEdges) != 1 || diff.AddedEdges[0].Label != "holds" {
		t.Fatalf("AddedEdges = %v", diff.AddedEdges)
	}
	if len(diff.RemovedEdges) != 1 || diff.RemovedEdges[0].ID != e.ID {
		t.Fatalf("RemovedEdges = %v", diff.RemovedEdges)
	}
	if len(diff.ChangedNodes) != 1 || get(diff.ChangedNodes[0].Before.Props, "name").S != "a" ||
		get(diff.ChangedNodes[0].After.Props, "name").S != "a2" {
		t.Fatalf("ChangedNodes = %+v", diff.ChangedNodes)
	}

	// A construct created and destroyed in one batch nets out to nothing,
	// and a node modified then removed reports only the removal with its
	// pre-batch state.
	diff, err = ov.Apply([]overlay.Op{
		{Kind: overlay.OpAddNode, Name: "tmp", Labels: []string{"D"}},
		{Kind: overlay.OpRemoveNode, Node: overlay.Ref{Name: "tmp"}},
		{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: b.ID}, Key: "k", Value: value.IntV(1)},
		{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: b.ID}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.AddedNodes) != 0 || len(diff.ChangedNodes) != 0 {
		t.Fatalf("net-out failed: %+v", diff)
	}
	if len(diff.RemovedNodes) != 1 || diff.RemovedNodes[0].ID != b.ID || len(diff.RemovedNodes[0].Props) != 0 {
		t.Fatalf("RemovedNodes = %+v", diff.RemovedNodes)
	}

	// Setting a property to its current value is not a change.
	diff, err = ov.Apply([]overlay.Op{
		{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: a.ID}, Key: "name", Value: value.Str("a2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Fatalf("no-op set must be empty, got %+v", diff)
	}
}

// get reads a property of a Diff's row; an absent key reads as the zero
// value.
func get(props pg.PropList, key string) value.Value {
	v, _ := props.Get(key)
	return v
}

// TestOverlayErrors: invalid operations fail with the overlay still usable.
func TestOverlayErrors(t *testing.T) {
	src := pg.New()
	a := src.AddNode([]string{"A"}, nil)
	ov := overlay.New(src.Freeze())
	cases := [][]overlay.Op{
		{{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: a.ID}, To: overlay.Ref{ID: 999}, Label: "x"}},
		{{Kind: overlay.OpAddEdge, From: overlay.Ref{Name: "ghost"}, To: overlay.Ref{ID: a.ID}, Label: "x"}},
		{{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: 999}}},
		{{Kind: overlay.OpRemoveEdge, Edge: 999}},
		{{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: 999}, Key: "k"}},
		{{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: 999}, Label: "L"}},
		{{Kind: "nonsense"}},
		{{Kind: overlay.OpAddNode, Name: "h"}, {Kind: overlay.OpAddNode, Name: "h"}},
	}
	// Apply is non-atomic on error, so each failing batch goes to a clone —
	// the server's own discipline — and the original must stay pristine.
	for i, ops := range cases {
		if _, err := ov.Clone().Apply(ops); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if ov.DeltaSize() != 0 || ov.NumNodes() != 1 {
		t.Fatalf("original overlay disturbed: delta %d, nodes %d", ov.DeltaSize(), ov.NumNodes())
	}
	// Removing a node twice fails the second time.
	if _, err := ov.Apply([]overlay.Op{{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: a.ID}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Apply([]overlay.Op{{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: a.ID}}}); err == nil {
		t.Error("double remove must fail")
	}
	if ov.NumNodes() != 0 || ov.DeltaSize() != 1 {
		t.Fatalf("overlay state after removals: %d nodes, delta %d", ov.NumNodes(), ov.DeltaSize())
	}
}
