// Package overlay layers a small mutable delta over an immutable pg.Frozen
// snapshot, giving the serving layer a live write path without giving up the
// two-phase storage model: the base stays a lock-free, mmap-friendly CSR
// snapshot, and all churn lives in O(delta) side structures — added nodes and
// edges, deleted base constructs, and copy-on-write replacements for mutated
// base nodes. The combination implements pg.View with the same contract as
// both phases (ascending-OID iteration, sorted label lists), so every
// read-side consumer — MetaLog extraction, query translation, statistics —
// works over a live overlay unchanged.
//
// The design is LSM-flavored: writes accumulate in the overlay (the
// memtable), reads merge base and delta on the fly, and Compact folds the
// delta into the next frozen generation (the flush). Fresh OIDs are
// allocated strictly above every base OID — exactly where Thaw's allocator
// resumes — so compacting an overlay and replaying the same mutations on a
// thawed copy of the base produce identical graphs, OIDs included; the
// property tests pin the two byte-identical through the snapshot encoder.
//
// Base *pg.Node values are never mutated: a property write or label gain
// replaces the node with a private copy (modNodes). Readers that want a
// label's constructs or a node's incident edges scan the merged view; the
// delta keeps only what the scans, degrees and label listings need.
//
// An Overlay is not safe for concurrent mutation. The server mutates a
// Clone and swaps it in atomically, so concurrent readers keep a consistent
// view; Clone is O(delta) and shares the immutable node/edge structs.
package overlay

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/pg"
)

// The package's fault sites: batch application and compaction. Chaos tests
// arm them to prove a failed mutation leaves the served view bit-identical
// and a failed compaction keeps the overlay generation serving.
var (
	siteApply   = fault.Site("overlay/apply")
	siteCompact = fault.Site("overlay/compact")
)

// Overlay is a mutable delta over a frozen base graph. The zero value is
// not usable; construct overlays with New.
type Overlay struct {
	base *pg.Frozen
	next pg.OID // next fresh OID, strictly above every base OID

	// Additions. addNodeIDs/addEdgeIDs stay sorted for free: fresh OIDs are
	// allocated in ascending order, so appends preserve the order and only
	// removals need a sorted delete.
	addNodes   map[pg.OID]*pg.Node
	addEdges   map[pg.OID]*pg.Edge
	addNodeIDs []pg.OID
	addEdgeIDs []pg.OID

	// Deletions of base constructs (added constructs are deleted by
	// dropping them from the addition maps).
	delNodes map[pg.OID]bool
	delEdges map[pg.OID]bool

	// Copy-on-write replacements for mutated base nodes.
	modNodes map[pg.OID]*pg.Node

	// Adjacency delta, each slice ascending: added incident edges and
	// deleted base incident edges per node.
	outAdd map[pg.OID][]pg.OID
	inAdd  map[pg.OID][]pg.OID
	outDel map[pg.OID][]pg.OID
	inDel  map[pg.OID][]pg.OID

	// Net change in the number of constructs carrying each label, for the
	// inhabitation checks behind NodeLabels/EdgeLabels.
	nodeLabelDelta map[string]int
	edgeLabelDelta map[string]int
}

// New returns an empty overlay over the given base snapshot.
func New(base *pg.Frozen) *Overlay {
	return &Overlay{
		base:           base,
		next:           base.MaxOID() + 1,
		addNodes:       map[pg.OID]*pg.Node{},
		addEdges:       map[pg.OID]*pg.Edge{},
		delNodes:       map[pg.OID]bool{},
		delEdges:       map[pg.OID]bool{},
		modNodes:       map[pg.OID]*pg.Node{},
		outAdd:         map[pg.OID][]pg.OID{},
		inAdd:          map[pg.OID][]pg.OID{},
		outDel:         map[pg.OID][]pg.OID{},
		inDel:          map[pg.OID][]pg.OID{},
		nodeLabelDelta: map[string]int{},
		edgeLabelDelta: map[string]int{},
	}
}

// Base returns the frozen snapshot under the overlay.
func (o *Overlay) Base() *pg.Frozen { return o.base }

// DeltaSize counts the pending changes: added and deleted constructs plus
// modified base nodes. Compaction policies trigger on it.
func (o *Overlay) DeltaSize() int {
	return len(o.addNodes) + len(o.addEdges) + len(o.delNodes) + len(o.delEdges) + len(o.modNodes)
}

// Clone returns an independent copy of the overlay in O(delta). The base and
// the node/edge structs are shared — both are immutable by the copy-on-write
// discipline — but every map and index slice is copied, so mutating the
// clone never disturbs the original (sortedset.Insert writes into shared
// backing arrays otherwise).
func (o *Overlay) Clone() *Overlay {
	c := &Overlay{
		base:           o.base,
		next:           o.next,
		addNodes:       make(map[pg.OID]*pg.Node, len(o.addNodes)),
		addEdges:       make(map[pg.OID]*pg.Edge, len(o.addEdges)),
		addNodeIDs:     append([]pg.OID(nil), o.addNodeIDs...),
		addEdgeIDs:     append([]pg.OID(nil), o.addEdgeIDs...),
		delNodes:       make(map[pg.OID]bool, len(o.delNodes)),
		delEdges:       make(map[pg.OID]bool, len(o.delEdges)),
		modNodes:       make(map[pg.OID]*pg.Node, len(o.modNodes)),
		outAdd:         cloneAdj(o.outAdd),
		inAdd:          cloneAdj(o.inAdd),
		outDel:         cloneAdj(o.outDel),
		inDel:          cloneAdj(o.inDel),
		nodeLabelDelta: make(map[string]int, len(o.nodeLabelDelta)),
		edgeLabelDelta: make(map[string]int, len(o.edgeLabelDelta)),
	}
	for id, n := range o.addNodes {
		c.addNodes[id] = n
	}
	for id, e := range o.addEdges {
		c.addEdges[id] = e
	}
	for id := range o.delNodes {
		c.delNodes[id] = true
	}
	for id := range o.delEdges {
		c.delEdges[id] = true
	}
	for id, n := range o.modNodes {
		c.modNodes[id] = n
	}
	for l, d := range o.nodeLabelDelta {
		c.nodeLabelDelta[l] = d
	}
	for l, d := range o.edgeLabelDelta {
		c.edgeLabelDelta[l] = d
	}
	return c
}

func cloneAdj(m map[pg.OID][]pg.OID) map[pg.OID][]pg.OID {
	out := make(map[pg.OID][]pg.OID, len(m))
	for k, v := range m {
		out[k] = append([]pg.OID(nil), v...)
	}
	return out
}

// Compact folds the overlay into a fresh frozen snapshot: the next
// generation of the two-phase lifecycle. The output is exactly what
// freezing the equivalently-mutated graph would produce — Freeze interns
// labels and keys from content in one canonical order — so snapshots of
// compacted overlays stay byte-identical under the snapfile encoder.
func (o *Overlay) Compact() (*pg.Frozen, error) {
	if err := fault.Hit(siteCompact); err != nil {
		return nil, err
	}
	g, err := pg.CopyView(o)
	if err != nil {
		return nil, fmt.Errorf("overlay: compacting: %w", err)
	}
	return g.Freeze(), nil
}

// ---- pg.View ----

var _ pg.View = (*Overlay)(nil)

// NumNodes returns the merged node count.
func (o *Overlay) NumNodes() int { return o.base.NumNodes() - len(o.delNodes) + len(o.addNodes) }

// NumEdges returns the merged edge count.
func (o *Overlay) NumEdges() int { return o.base.NumEdges() - len(o.delEdges) + len(o.addEdges) }

// Node resolves an OID against the merged view.
func (o *Overlay) Node(id pg.OID) *pg.Node {
	if o.delNodes[id] {
		return nil
	}
	if n, ok := o.addNodes[id]; ok {
		return n
	}
	if n, ok := o.modNodes[id]; ok {
		return n
	}
	return o.base.Node(id)
}

// Edge resolves an OID against the merged view.
func (o *Overlay) Edge(id pg.OID) *pg.Edge {
	if o.delEdges[id] {
		return nil
	}
	if e, ok := o.addEdges[id]; ok {
		return e
	}
	return o.base.Edge(id)
}

// ScanNodes visits the merged nodes in ascending OID order: the base's scan
// minus the deleted rows, a modified node's replacement in its row's place,
// then the added nodes, whose OIDs are all larger.
func (o *Overlay) ScanNodes(visit func(*pg.NodeRow) bool) {
	var own pg.NodeRow // presents the delta's pointer structs
	more := true
	o.base.ScanNodes(func(r *pg.NodeRow) bool {
		if o.delNodes[r.ID] {
			return true
		}
		if m, ok := o.modNodes[r.ID]; ok {
			own.SetNode(m)
			r = &own
		}
		more = visit(r)
		return more
	})
	for _, id := range o.addNodeIDs {
		if !more {
			return
		}
		own.SetNode(o.addNodes[id])
		more = visit(&own)
	}
}

// ScanEdges visits the merged edges in ascending OID order.
func (o *Overlay) ScanEdges(visit func(*pg.EdgeRow) bool) {
	more := true
	o.base.ScanEdges(func(r *pg.EdgeRow) bool {
		if !o.delEdges[r.ID] {
			more = visit(r)
		}
		return more
	})
	var own pg.EdgeRow
	for _, id := range o.addEdgeIDs {
		if !more {
			return
		}
		own.SetEdge(o.addEdges[id])
		more = visit(&own)
	}
}

// ScanNodeRows visits the merged nodes in ascending OID order, as ScanNodes
// does, but presents no base row: a base node the overlay leaves as it is
// comes as its row index in Base().Columns() and a nil node, a replaced base
// node or an added one as row -1 and the node itself. It is the walk of a
// reader that keeps row ids into the base instead of copies of it.
func (o *Overlay) ScanNodeRows(visit func(row int32, n *pg.Node) bool) {
	for i, id := range o.base.Columns().NodeOIDs {
		switch m, mod := o.modNodes[id]; {
		case o.delNodes[id]:
		case mod:
			if !visit(-1, m) {
				return
			}
		default:
			if !visit(int32(i), nil) {
				return
			}
		}
	}
	for _, id := range o.addNodeIDs {
		if !visit(-1, o.addNodes[id]) {
			return
		}
	}
}

// ScanEdgeRows is ScanNodeRows for the merged edges; a base edge is never
// replaced, only deleted.
func (o *Overlay) ScanEdgeRows(visit func(row int32, e *pg.Edge) bool) {
	for i, id := range o.base.Columns().EdgeOIDs {
		if !o.delEdges[id] && !visit(int32(i), nil) {
			return
		}
	}
	for _, id := range o.addEdgeIDs {
		if !visit(-1, o.addEdges[id]) {
			return
		}
	}
}

// OutDegree counts a node's merged outgoing edges without materializing
// them (column arithmetic on the base plus delta list lengths).
func (o *Overlay) OutDegree(id pg.OID) int {
	if o.delNodes[id] {
		return 0
	}
	return o.base.OutDegree(id) - len(o.outDel[id]) + len(o.outAdd[id])
}

// InDegree counts a node's merged incoming edges.
func (o *Overlay) InDegree(id pg.OID) int {
	if o.delNodes[id] {
		return 0
	}
	return o.base.InDegree(id) - len(o.inDel[id]) + len(o.inAdd[id])
}

// NodeLabels lists the labels carried by at least one merged node, sorted.
// Base membership is counted on the label columns, so listing labels builds
// no base node.
func (o *Overlay) NodeLabels() []string {
	base := o.base.NodeLabels()
	if len(o.nodeLabelDelta) == 0 {
		return base
	}
	return mergedLabels(base, o.nodeLabelDelta, o.base.NodeLabelCount)
}

// EdgeLabels lists the labels carried by at least one merged edge, sorted.
func (o *Overlay) EdgeLabels() []string {
	base := o.base.EdgeLabels()
	if len(o.edgeLabelDelta) == 0 {
		return base
	}
	return mergedLabels(base, o.edgeLabelDelta, o.base.EdgeLabelCount)
}

func mergedLabels(base []string, delta map[string]int, baseCount func(string) int) []string {
	seen := make(map[string]bool, len(base)+len(delta))
	out := make([]string, 0, len(base)+len(delta))
	for _, l := range base {
		seen[l] = true
		if baseCount(l)+delta[l] > 0 {
			out = append(out, l)
		}
	}
	for l, d := range delta {
		if !seen[l] && d > 0 {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// ---- shared helpers ----

// normalizeLabels mirrors pg's label normalization: sorted, unique, nil when
// empty.
func normalizeLabels(labels []string) []string {
	if len(labels) == 0 {
		return nil
	}
	out := append([]string(nil), labels...)
	sort.Strings(out)
	j := 0
	for i, l := range out {
		if i == 0 || l != out[i-1] {
			out[j] = l
			j++
		}
	}
	return out[:j]
}

// cloneNodeProps mirrors pg's node convention: nodes always carry a non-nil
// property map.
func cloneNodeProps(p pg.Props) pg.Props {
	out := make(pg.Props, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// cloneEdgeProps mirrors pg's edge convention: empty maps stay nil.
func cloneEdgeProps(p pg.Props) pg.Props {
	if len(p) == 0 {
		return nil
	}
	out := make(pg.Props, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// copyNode returns a private deep copy for copy-on-write mutation.
func copyNode(n *pg.Node) *pg.Node {
	out := &pg.Node{ID: n.ID, Props: cloneNodeProps(n.Props)}
	if len(n.Labels) > 0 {
		out.Labels = append([]string(nil), n.Labels...)
	}
	return out
}
