package overlay_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/value"
)

// The fuzz palettes collide on purpose: a node label that is also a property
// key and an edge label, an empty edge label, and values that differ only
// in kind (Int 1 against Float 1.0), which a Diff must report as a change.
var (
	fuzzNodeLabels = []string{"A", "B", "name"}
	fuzzEdgeLabels = []string{"A", "", "owns"}
	fuzzKeys       = []string{"name", "A", "k"}
	fuzzValues     = []value.Value{value.IntV(1), value.FloatV(1), value.Str("1"), value.BoolV(true), value.IntV(2)}
)

// fuzzBase is the snapshot every fuzzed stream starts from: labeled,
// unlabeled and multi-labeled nodes, base self-loops and parallel edges.
func fuzzBase() *pg.Graph {
	g := pg.New()
	a := g.AddNode([]string{"A"}, pg.Props{"name": value.Str("a"), "k": value.IntV(1)})
	b := g.AddNode([]string{"A", "B"}, pg.Props{"A": value.FloatV(1)})
	c := g.AddNode(nil, nil)
	d := g.AddNode([]string{"name"}, pg.Props{"name": value.IntV(2)})
	g.MustAddEdge(a.ID, a.ID, "owns", pg.Props{"k": value.IntV(1)})
	g.MustAddEdge(a.ID, b.ID, "owns", nil)
	g.MustAddEdge(a.ID, b.ID, "A", nil)
	g.MustAddEdge(b.ID, a.ID, "", pg.Props{"name": value.Str("x")})
	g.MustAddEdge(c.ID, c.ID, "A", nil)
	g.MustAddEdge(d.ID, c.ID, "owns", nil)
	return g
}

// opStream decodes fuzz bytes; past the end it reads zeros.
type opStream struct {
	data []byte
	pos  int
}

func (s *opStream) done() bool { return s.pos >= len(s.data) }

func (s *opStream) next() int {
	if s.done() {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *opStream) pick(n int) int { return s.next() % n }

func (s *opStream) labels(pool []string) []string {
	var out []string
	for i, mask := 0, s.next(); i < len(pool); i++ {
		if mask&(1<<i) != 0 {
			out = append(out, pool[i])
		}
	}
	return out
}

func (s *opStream) props() pg.Props {
	p := pg.Props{}
	for i, mask := 0, s.next(); i < len(fuzzKeys); i++ {
		if mask&(1<<i) != 0 {
			p[fuzzKeys[i]] = fuzzValues[s.pick(len(fuzzValues))]
		}
	}
	return p
}

// FuzzOverlayApply decodes at most 128 bytes into a stream of mutation
// batches over fuzzBase — every op kind, handles, self-loops, removal of
// base and added nodes — and probes of ops naming a construct that is not
// there. Each batch goes to a Clone of the overlay, as the server applies
// one, and op by op to the thawed base; the overlay's Diff must be the net
// change of the graph, and a probe must fail. At the end the overlay reads
// like the graph and its Compact() encodes to the bytes of the graph's
// freeze.
func FuzzOverlayApply(f *testing.F) {
	f.Add([]byte{1, 2, 0, 2, 3, 1, 0, 7, 1})
	f.Add([]byte{3, 0, 5, 9, 1, 7, 4, 0, 2, 0, 0, 5, 2, 4})
	f.Add([]byte{6, 0, 3, 1, 1, 1, 4, 0, 2, 4, 2, 1, 1, 2, 0, 5, 3, 0, 10, 7, 0, 2, 8})
	f.Add([]byte{2, 1, 3, 4, 1, 9, 2, 6, 3, 2, 10, 0, 5, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		src := fuzzBase()
		ov := overlay.New(src.Freeze())
		ref := ov.Base().Thaw()
		s := &opStream{data: data}
		for unit := 0; !s.done(); unit++ {
			u := s.next()
			if u%5 == 0 {
				probe := deadOp(s, ref)
				if _, err := ov.Clone().Apply([]overlay.Op{probe}); err == nil {
					t.Fatalf("unit %d: %s %+v applied to a construct that is not there", unit, probe.Kind, probe)
				}
				continue
			}
			before := stateOf(ref)
			ops, names := fuzzBatch(t, s, ref, 1+u%8)
			next := ov.Clone()
			diff, err := next.Apply(ops)
			if err != nil {
				t.Fatalf("unit %d: %v", unit, err)
			}
			checkDiff(t, unit, diff, names, before, ref)
			ov = next
		}
		compareViews(t, ov, ref)
		info := snapfile.BuildInfo{Tool: "overlay-fuzz", CreatedUnix: 1}
		compacted, err := ov.Compact()
		if err != nil {
			t.Fatal(err)
		}
		got, err := snapfile.Encode(compacted, info)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snapfile.Encode(ref.Freeze(), info)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("Compact() encoding diverges from freezing the mutated graph")
		}
	})
}

// fuzzBatch decodes n ops, each valid against ref as the batch unfolds, and
// replays each on ref as soon as it is decoded. It returns the batch and
// the handles it bound.
func fuzzBatch(t *testing.T, s *opStream, ref *pg.Graph, n int) ([]overlay.Op, map[string]pg.OID) {
	var ops []overlay.Op
	names := map[string]pg.OID{}
	var handles []string
	node := func() (overlay.Ref, bool) {
		var refs []overlay.Ref
		for _, n := range ref.Nodes() {
			refs = append(refs, overlay.Ref{ID: n.ID})
		}
		for _, h := range handles {
			if ref.Node(names[h]) != nil {
				refs = append(refs, overlay.Ref{Name: h})
			}
		}
		if len(refs) == 0 {
			return overlay.Ref{}, false
		}
		return refs[s.pick(len(refs))], true
	}
	for i := 0; i < n && !s.done(); i++ {
		var op overlay.Op
		switch kind := s.pick(8); kind {
		case 0:
			op = overlay.Op{Kind: overlay.OpAddNode, Labels: s.labels(fuzzNodeLabels), Props: s.props()}
			if s.next()%2 == 0 {
				op.Name = fmt.Sprintf("h%d", len(handles))
				handles = append(handles, op.Name)
			}
		case 1, 2: // 2 adds a self-loop
			from, ok := node()
			if !ok {
				continue
			}
			to := from
			if kind == 1 {
				to, _ = node()
			}
			op = overlay.Op{Kind: overlay.OpAddEdge, From: from, To: to, Label: fuzzEdgeLabels[s.pick(len(fuzzEdgeLabels))], Props: s.props()}
		case 3:
			r, ok := node()
			if !ok {
				continue
			}
			op = overlay.Op{Kind: overlay.OpRemoveNode, Node: r}
		case 4:
			edges := ref.Edges()
			if len(edges) == 0 {
				continue
			}
			op = overlay.Op{Kind: overlay.OpRemoveEdge, Edge: edges[s.pick(len(edges))].ID}
		case 5, 6, 7:
			r, ok := node()
			if !ok {
				continue
			}
			op = overlay.Op{Node: r}
			switch kind {
			case 5:
				op.Kind, op.Key, op.Value = overlay.OpSetNodeProp, fuzzKeys[s.pick(len(fuzzKeys))], fuzzValues[s.pick(len(fuzzValues))]
			case 6:
				op.Kind, op.Key = overlay.OpDelNodeProp, fuzzKeys[s.pick(len(fuzzKeys))]
			default:
				op.Kind, op.Label = overlay.OpAddLabel, fuzzNodeLabels[s.pick(len(fuzzNodeLabels))]
			}
		}
		if err := applyOpToGraph(ref, op, names); err != nil {
			t.Fatalf("reference rejects decoded op %+v: %v", op, err)
		}
		ops = append(ops, op)
	}
	return ops, names
}

// deadOp decodes one op naming an OID that is no node of ref (or, for
// remove_edge, no edge): a removed or never-allocated OID, or one of the
// other kind of construct.
func deadOp(s *opStream, ref *pg.Graph) overlay.Op {
	hi := pg.OID(2)
	for _, n := range ref.Nodes() {
		hi = max(hi, n.ID+2)
	}
	for _, e := range ref.Edges() {
		hi = max(hi, e.ID+2)
	}
	kind := s.pick(6)
	var dead []pg.OID
	for id := pg.OID(1); id <= hi; id++ {
		if kind == 0 && ref.Edge(id) == nil || kind != 0 && ref.Node(id) == nil {
			dead = append(dead, id)
		}
	}
	id := dead[s.pick(len(dead))]
	switch kind {
	case 0:
		return overlay.Op{Kind: overlay.OpRemoveEdge, Edge: id}
	case 1:
		return overlay.Op{Kind: overlay.OpRemoveNode, Node: overlay.Ref{ID: id}}
	case 2:
		return overlay.Op{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: id}, Key: "k", Value: value.IntV(1)}
	case 3:
		return overlay.Op{Kind: overlay.OpAddLabel, Node: overlay.Ref{ID: id}, Label: "A"}
	case 4:
		return overlay.Op{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: id}, To: overlay.Ref{ID: 1}, Label: "A"}
	default:
		return overlay.Op{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: 1}, To: overlay.Ref{ID: id}, Label: "A"}
	}
}

// graphState is a deep copy of a graph's constructs, keyed by OID.
type graphState struct {
	nodes map[pg.OID]*pg.Node
	edges map[pg.OID]*pg.Edge
}

func stateOf(g *pg.Graph) graphState {
	st := graphState{nodes: map[pg.OID]*pg.Node{}, edges: map[pg.OID]*pg.Edge{}}
	for _, n := range g.Nodes() {
		st.nodes[n.ID] = &pg.Node{ID: n.ID, Labels: append([]string(nil), n.Labels...), Props: pg.CloneProps(n.Props)}
	}
	for _, e := range g.Edges() {
		st.edges[e.ID] = e // a graph never edits an edge in place
	}
	return st
}

// checkDiff fails t unless diff is the net change from before to ref: the
// constructs present only after, only before (with their pre-batch state),
// and the nodes present in both whose labels or properties differ in
// identity, each in ascending OID order, plus the batch's handles.
func checkDiff(t *testing.T, unit int, diff overlay.Diff, names map[string]pg.OID, before graphState, ref *pg.Graph) {
	t.Helper()
	var want overlay.Diff
	after := stateOf(ref)
	for _, n := range ref.Nodes() {
		if b, ok := before.nodes[n.ID]; !ok {
			want.AddedNodes = append(want.AddedNodes, nodeRowOf(n))
		} else if !identicalNode(b, n) {
			want.ChangedNodes = append(want.ChangedNodes, overlay.NodeChange{Before: nodeRowOf(b), After: nodeRowOf(n)})
		}
	}
	for _, e := range ref.Edges() {
		if _, ok := before.edges[e.ID]; !ok {
			want.AddedEdges = append(want.AddedEdges, edgeRowOf(e))
		}
	}
	for _, id := range sortedIDs(before.nodes) {
		if _, ok := after.nodes[id]; !ok {
			want.RemovedNodes = append(want.RemovedNodes, nodeRowOf(before.nodes[id]))
		}
	}
	for _, id := range sortedIDs(before.edges) {
		if _, ok := after.edges[id]; !ok {
			want.RemovedEdges = append(want.RemovedEdges, edgeRowOf(before.edges[id]))
		}
	}
	if got, w := diffString(diff), diffString(want); got != w {
		t.Fatalf("unit %d: Diff = %s, want %s", unit, got, w)
	}
	if len(names) == 0 && diff.Handles != nil || len(names) > 0 && fmt.Sprint(diff.Handles) != fmt.Sprint(names) {
		t.Fatalf("unit %d: Handles = %v, want %v", unit, diff.Handles, names)
	}
}

func nodeRowOf(n *pg.Node) *pg.NodeRow {
	return &pg.NodeRow{ID: n.ID, Labels: n.Labels, Props: pg.PropListOf(n.Props)}
}

func edgeRowOf(e *pg.Edge) *pg.EdgeRow {
	return &pg.EdgeRow{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: pg.PropListOf(e.Props)}
}

func identicalNode(a, b *pg.Node) bool {
	if fmt.Sprint(a.Labels) != fmt.Sprint(b.Labels) || len(a.Props) != len(b.Props) {
		return false
	}
	for k, v := range a.Props {
		if w, ok := b.Props[k]; !ok || !value.Identical(v, w) {
			return false
		}
	}
	return true
}

func sortedIDs[T any](m map[pg.OID]T) []pg.OID {
	ids := make([]pg.OID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// diffString renders a Diff with each row's properties in key order, kinds
// included, so Diffs whose rows store their keys in different orders render
// alike and an Int 1 never renders like a Float 1.0.
func diffString(d overlay.Diff) string {
	var b bytes.Buffer
	props := func(l pg.PropList) string {
		var kv []string
		for _, p := range l {
			kv = append(kv, fmt.Sprintf("%s=%s:%s", p.Key, p.Val.K, p.Val.Canonical()))
		}
		slices.Sort(kv)
		return fmt.Sprint(kv)
	}
	for _, n := range d.AddedNodes {
		fmt.Fprintf(&b, " +n%d%v%s", n.ID, n.Labels, props(n.Props))
	}
	for _, n := range d.RemovedNodes {
		fmt.Fprintf(&b, " -n%d%v%s", n.ID, n.Labels, props(n.Props))
	}
	for _, c := range d.ChangedNodes {
		fmt.Fprintf(&b, " ~n%d%v%s->n%d%v%s", c.Before.ID, c.Before.Labels, props(c.Before.Props), c.After.ID, c.After.Labels, props(c.After.Props))
	}
	for _, e := range d.AddedEdges {
		fmt.Fprintf(&b, " +e%d(%d-%q->%d)%s", e.ID, e.From, e.Label, e.To, props(e.Props))
	}
	for _, e := range d.RemovedEdges {
		fmt.Fprintf(&b, " -e%d(%d-%q->%d)%s", e.ID, e.From, e.Label, e.To, props(e.Props))
	}
	return b.String()
}
