package pg

import (
	"slices"
	"strings"

	"repro/internal/value"
)

// View is the read interface shared by the two phases of a graph
// dictionary's lifecycle:
//
//   - the builder phase, where a mutable *Graph accumulates the dictionary
//     (loaders, SSST translation, Algorithm 2's flush), and
//   - the frozen phase, where an immutable *Frozen snapshot serves
//     concurrent readers (statistics, MetaLog fact extraction, schema
//     readers, validation, emission) without cloning.
//
// Everything that only reads a dictionary takes a View, so callers choose
// the representation: pass the *Graph while still building, or Freeze()
// once writes are done and share the snapshot. The paper's staging
// discussion (Section 6) batches all writes before reasoning, which is
// exactly the builder→frozen handoff.
//
// Contract: a View is its scans. Both hand out rows in ascending OID order,
// identical across implementations — reasoning over a frozen snapshot is
// bit-identical to reasoning over the graph it snapshots — and every reader
// of a whole graph (fact extraction, statistics, copying, freezing) walks
// them. A View resolves no OID, counts no degree and lists no label:
// implementations keep such point reads as their own methods (Node and Edge
// on *Graph, *Frozen and the overlay; NodesByLabel, EdgesByLabel, Out and In
// on the mutable *Graph, which holds the pointer structs natively).
type View interface {
	// NumNodes and NumEdges return the sizes of N and E.
	NumNodes() int
	NumEdges() int

	// ScanNodes and ScanEdges hand every construct to visit as a flat row,
	// in ascending OID order, until visit returns false. The row and its
	// slices are reused between visits: a visitor that keeps anything of a
	// row copies it (the strings and values themselves are immutable), and
	// no visitor writes to one — an overlay hands out the rows it holds. A
	// scan is the one whole-graph read, and it builds nothing per construct:
	// *Frozen walks its columns for it, with no pointer struct or property
	// map.
	ScanNodes(visit func(*NodeRow) bool)
	ScanEdges(visit func(*EdgeRow) bool)
}

// Prop is one property of a scanned row.
type Prop struct {
	Key string
	Val value.Value
}

// PropList is a construct's property map flattened for a scanned row: each
// key once, in an order the implementation chooses (a bulk-loaded snapshot's
// is not name order) — so read a property with Get, never by position.
type PropList []Prop

// Get returns the list's value for a property key.
func (l PropList) Get(key string) (value.Value, bool) {
	for i := range l {
		if l[i].Key == key {
			return l[i].Val, true
		}
	}
	return value.Value{}, false
}

// NodeRow is a node as a scan presents it: the fields of Node with the
// property map flattened. Labels is sorted and nil for an unlabeled node;
// Props is nil exactly when the Node's map is.
type NodeRow struct {
	ID     OID
	Labels []string
	Props  PropList

	buf PropList // the store Props is cut from, kept across rows whose Props is nil
}

// EdgeRow is an edge as a scan presents it; Props as for NodeRow.
type EdgeRow struct {
	ID    OID
	Label string
	From  OID
	To    OID
	Props PropList

	buf PropList
}

// Node returns the node the row presents, with a property map of its own.
func (r *NodeRow) Node() *Node { return &Node{ID: r.ID, Labels: r.Labels, Props: PropMap(r.Props)} }

// Edge returns the edge the row presents, with a property map of its own —
// nil when the row has no properties, as CloneEdgeProps keeps it.
func (r *EdgeRow) Edge() *Edge {
	e := &Edge{ID: r.ID, Label: r.Label, From: r.From, To: r.To}
	if len(r.Props) > 0 {
		e.Props = PropMap(r.Props)
	}
	return e
}

// PropListOf returns a property map as a list of its own, in key order, or
// nil when the map is empty.
func PropListOf(p Props) PropList {
	if len(p) == 0 {
		return nil
	}
	l, _ := flattenProps(p, nil)
	return l
}

// flattenProps lays a property map out in buf, sorted by key, and returns
// the list with the (possibly grown) buffer. The list is nil exactly when
// the map is.
func flattenProps(p Props, buf PropList) (props, _ PropList) {
	if p == nil {
		return nil, buf
	}
	if buf == nil {
		buf = make(PropList, 0, len(p))
	}
	buf = buf[:0]
	for k, v := range p {
		buf = append(buf, Prop{k, v})
	}
	slices.SortFunc(buf, func(a, b Prop) int { return strings.Compare(a.Key, b.Key) })
	return buf, buf
}

// Both lifecycle phases implement the shared read interface.
var (
	_ View = (*Graph)(nil)
	_ View = (*Frozen)(nil)
)
