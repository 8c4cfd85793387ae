// Package overlay layers a small mutable delta over an immutable pg.Frozen
// snapshot, giving the serving layer a live write path without giving up the
// two-phase storage model: the base stays a lock-free, mmap-friendly CSR
// snapshot, and all churn lives in O(delta) side structures — added nodes and
// edges, deleted base constructs, and copy-on-write replacements for mutated
// base nodes. The combination implements pg.View with the same contract as
// both phases (ascending-OID row scans), so every read-side consumer —
// MetaLog extraction, query translation, statistics — works over a live
// overlay unchanged.
//
// The design is LSM-flavored: writes accumulate in the overlay (the
// memtable), reads merge base and delta on the fly, and Compact streams the
// merged rows into the next frozen generation (the flush). Fresh OIDs are
// allocated strictly above every base OID — exactly where Thaw's allocator
// resumes — so compacting an overlay and replaying the same mutations on a
// thawed copy of the base produce identical graphs, OIDs included; the
// property tests pin the two byte-identical through the snapshot encoder.
//
// The delta holds each construct as one immutable pg.NodeRow or pg.EdgeRow,
// built once per op and handed out by the scans as it is. A property write
// or label gain replaces the node's row (modNodes) with a copy of the base
// row, read by its index in the columns, that shares every slice it does
// not change. Readers that want a label's constructs, a node's incident
// edges or its degree scan the merged view; the delta keeps only what the
// scans need: the added constructs, the deleted OIDs and the replaced nodes.
//
// An Overlay is not safe for concurrent mutation. The server mutates a
// Clone and swaps it in atomically, so concurrent readers keep a consistent
// view; Clone is O(delta) and shares the immutable rows.
package overlay

import (
	"fmt"
	"slices"

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
	addNodes   map[pg.OID]*pg.NodeRow
	addEdges   map[pg.OID]*pg.EdgeRow
	addNodeIDs []pg.OID
	addEdgeIDs []pg.OID

	// Deletions of base constructs (added constructs are deleted by
	// dropping them from the addition maps).
	delNodes map[pg.OID]bool
	delEdges map[pg.OID]bool

	// Copy-on-write replacements for mutated base nodes.
	modNodes map[pg.OID]*pg.NodeRow
}

// New returns an empty overlay over the given base snapshot.
func New(base *pg.Frozen) *Overlay {
	return &Overlay{
		base:     base,
		next:     base.MaxOID() + 1,
		addNodes: map[pg.OID]*pg.NodeRow{},
		addEdges: map[pg.OID]*pg.EdgeRow{},
		delNodes: map[pg.OID]bool{},
		delEdges: map[pg.OID]bool{},
		modNodes: map[pg.OID]*pg.NodeRow{},
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
// the rows are shared — both are immutable by the copy-on-write discipline —
// but every map and OID slice is copied, so mutating the
// clone never disturbs the original (sortedset.Remove writes into shared
// backing arrays otherwise).
func (o *Overlay) Clone() *Overlay {
	c := &Overlay{
		base:       o.base,
		next:       o.next,
		addNodes:   make(map[pg.OID]*pg.NodeRow, len(o.addNodes)),
		addEdges:   make(map[pg.OID]*pg.EdgeRow, len(o.addEdges)),
		addNodeIDs: append([]pg.OID(nil), o.addNodeIDs...),
		addEdgeIDs: append([]pg.OID(nil), o.addEdgeIDs...),
		delNodes:   make(map[pg.OID]bool, len(o.delNodes)),
		delEdges:   make(map[pg.OID]bool, len(o.delEdges)),
		modNodes:   make(map[pg.OID]*pg.NodeRow, len(o.modNodes)),
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
	return c
}

// Compact folds the overlay into a fresh frozen snapshot, the next
// generation of the two-phase lifecycle, by streaming the merged rows into
// pg.FreezeView. The output is what freezing the equivalently-mutated graph
// produces, byte for byte under the snapfile encoder.
func (o *Overlay) Compact() (*pg.Frozen, error) {
	if err := fault.Hit(siteCompact); err != nil {
		return nil, err
	}
	f, err := pg.FreezeView(o)
	if err != nil {
		return nil, fmt.Errorf("overlay: compacting: %w", err)
	}
	return f, nil
}

// ---- pg.View ----

var _ pg.View = (*Overlay)(nil)

// NumNodes returns the merged node count.
func (o *Overlay) NumNodes() int { return o.base.NumNodes() - len(o.delNodes) + len(o.addNodes) }

// NumEdges returns the merged edge count.
func (o *Overlay) NumEdges() int { return o.base.NumEdges() - len(o.delEdges) + len(o.addEdges) }

// Node resolves an OID against the merged view, built from its row.
func (o *Overlay) Node(id pg.OID) *pg.Node {
	if r := o.nodeRow(id); r != nil {
		return r.Node()
	}
	return nil
}

// Edge resolves an OID against the merged view as Node does.
func (o *Overlay) Edge(id pg.OID) *pg.Edge {
	if r := o.edgeRow(id); r != nil {
		return r.Edge()
	}
	return nil
}

// nodeRow returns the merged view's row for a node OID, or nil: the delta's
// own row, or the base row read into a row of its own.
func (o *Overlay) nodeRow(id pg.OID) *pg.NodeRow {
	if o.delNodes[id] {
		return nil
	}
	if n, ok := o.addNodes[id]; ok {
		return n
	}
	if n, ok := o.modNodes[id]; ok {
		return n
	}
	if row, ok := slices.BinarySearch(o.base.Columns().NodeOIDs, id); ok {
		return o.base.NodeRowAt(row)
	}
	return nil
}

// edgeRow returns the merged view's row for an edge OID, or nil.
func (o *Overlay) edgeRow(id pg.OID) *pg.EdgeRow {
	if o.delEdges[id] {
		return nil
	}
	if e, ok := o.addEdges[id]; ok {
		return e
	}
	if row, ok := slices.BinarySearch(o.base.Columns().EdgeOIDs, id); ok {
		return o.base.EdgeRowAt(row)
	}
	return nil
}

// ScanNodes visits the merged nodes in ascending OID order: the base's scan
// minus the deleted rows, a modified node's replacement in its row's place,
// then the added nodes, whose OIDs are all larger. The delta's rows are
// handed out as the overlay holds them.
func (o *Overlay) ScanNodes(visit func(*pg.NodeRow) bool) {
	more := true
	o.base.ScanNodes(func(r *pg.NodeRow) bool {
		if o.delNodes[r.ID] {
			return true
		}
		if m, ok := o.modNodes[r.ID]; ok {
			r = m
		}
		more = visit(r)
		return more
	})
	for _, id := range o.addNodeIDs {
		if !more {
			return
		}
		more = visit(o.addNodes[id])
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
	for _, id := range o.addEdgeIDs {
		if !more {
			return
		}
		more = visit(o.addEdges[id])
	}
}

// ScanNodeRows visits the merged nodes in ascending OID order, as ScanNodes
// does, but presents no base row: a base node the overlay leaves as it is
// comes as its row index in Base().Columns() and a nil row, a replaced base
// node or an added one as row -1 and the overlay's own row. It is the walk
// of a reader that keeps row ids into the base and the delta's rows instead
// of copies of either.
func (o *Overlay) ScanNodeRows(visit func(row int32, n *pg.NodeRow) bool) {
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
func (o *Overlay) ScanEdgeRows(visit func(row int32, e *pg.EdgeRow) bool) {
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
