// Package pg implements an embedded property-graph store.
//
// It realizes the (regular) property-graph definition of the paper
// (Section 4): a finite set of nodes N, a set of edges E disjoint from N, an
// incidence function μ : E → N², a partial labelling function λ over nodes
// and edges, and a partial property function σ : (N ∪ E) × P → V.
//
// The store is used pervasively across the framework: the graph dictionaries
// holding the super-model, the models, super-schemas and schemas are all
// property graphs (Section 2.2 "Graph Dictionaries"), as are the instances of
// the extensional component. Nodes may carry multiple labels, as required by
// the property-graph target model of Section 5.2 ("nodes can be tagged with
// multiple labels"); edges carry exactly one label.
//
// All iteration orders are deterministic (ascending OID) so that reasoning
// results, rendered diagrams and benchmarks are reproducible. Graphs are not
// safe for concurrent mutation; the framework's pipelines are single-writer
// by construction (the paper's staging discussion in Section 6 batches all
// writes).
package pg

import (
	"fmt"
	"sort"

	"repro/internal/sortedset"
	"repro/internal/value"
)

// OID is the internal object identifier of a node or edge. The paper assumes
// every construct instance carries a unique internal OID (Section 3.1).
type OID int64

// Props is the property map σ restricted to one node or edge.
type Props map[string]value.Value

// Get returns the map's value for a property key; PropList.Get is the same
// read of a scanned row.
func (p Props) Get(key string) (value.Value, bool) {
	v, ok := p[key]
	return v, ok
}

// Node is a vertex of the property graph.
type Node struct {
	ID     OID
	Labels []string // sorted, unique
	Props  Props
}

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(label string) bool {
	i := sort.SearchStrings(n.Labels, label)
	return i < len(n.Labels) && n.Labels[i] == label
}

// Label returns the primary (first) label, or "" for an unlabeled node.
func (n *Node) Label() string {
	if len(n.Labels) == 0 {
		return ""
	}
	return n.Labels[0]
}

// Edge is a directed, labeled edge of the property graph.
type Edge struct {
	ID    OID
	Label string
	From  OID
	To    OID
	Props Props
}

// Graph is a mutable in-memory property graph.
//
// The zero value is not usable; construct graphs with New.
type Graph struct {
	nodes map[OID]*Node
	edges map[OID]*Edge
	next  OID

	byLabel     map[string][]OID // node OIDs per label, sorted
	byEdgeLabel map[string][]OID // edge OIDs per label, sorted
	out         map[OID][]OID    // node -> outgoing edge OIDs, sorted
	in          map[OID][]OID    // node -> incoming edge OIDs, sorted

	// Undo journal of the open savepoints (snapshot.go). Mutators append
	// compensating entries while snapDepth > 0.
	journal   []undoOp
	snapDepth int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:       make(map[OID]*Node),
		edges:       make(map[OID]*Edge),
		next:        1,
		byLabel:     make(map[string][]OID),
		byEdgeLabel: make(map[string][]OID),
		out:         make(map[OID][]OID),
		in:          make(map[OID][]OID),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

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

func cloneProps(p Props) Props {
	if p == nil {
		return Props{}
	}
	out := make(Props, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// cloneEdgeProps keeps empty edge property maps nil: edges are never
// mutated in place (unlike nodes, whose Props the materializers write), and
// graphs at dictionary scale carry millions of property-less edges whose
// empty maps would otherwise dominate allocation.
func cloneEdgeProps(p Props) Props {
	if len(p) == 0 {
		return nil
	}
	out := make(Props, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// AddNode creates a node with the given labels and properties and returns it.
func (g *Graph) AddNode(labels []string, props Props) *Node {
	n := &Node{ID: g.next, Labels: normalizeLabels(labels), Props: cloneProps(props)}
	g.record(undoOp{kind: undoAddNode, id: n.ID, prevNext: g.next})
	g.next++
	g.nodes[n.ID] = n
	for _, l := range n.Labels {
		g.byLabel[l] = sortedset.Insert(g.byLabel[l], n.ID)
	}
	return n
}

// AddNodeWithID creates a node with a caller-chosen OID, used when importing
// serialized graphs. It fails if the OID is not positive or already taken.
func (g *Graph) AddNodeWithID(id OID, labels []string, props Props) (*Node, error) {
	return g.insertNode(id, labels, cloneProps(props))
}

// insertNode is AddNodeWithID taking ownership of props.
func (g *Graph) insertNode(id OID, labels []string, props Props) (*Node, error) {
	if id < 1 {
		return nil, fmt.Errorf("pg: node OID %d is not positive", id)
	}
	if _, ok := g.nodes[id]; ok {
		return nil, fmt.Errorf("pg: node OID %d already exists", id)
	}
	if _, ok := g.edges[id]; ok {
		return nil, fmt.Errorf("pg: OID %d already used by an edge", id)
	}
	n := &Node{ID: id, Labels: normalizeLabels(labels), Props: props}
	g.record(undoOp{kind: undoAddNode, id: id, prevNext: g.next})
	g.nodes[id] = n
	if id >= g.next {
		g.next = id + 1
	}
	for _, l := range n.Labels {
		g.byLabel[l] = sortedset.Insert(g.byLabel[l], n.ID)
	}
	return n, nil
}

// AddLabel adds a label to an existing node (used by the PG translation's
// multi-label tagging strategy for generalizations).
func (g *Graph) AddLabel(id OID, label string) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("pg: no node with OID %d", id)
	}
	if n.HasLabel(label) {
		return nil
	}
	g.record(undoOp{kind: undoAddLabel, id: id, label: label})
	n.Labels = normalizeLabels(append(n.Labels, label))
	g.byLabel[label] = sortedset.Insert(g.byLabel[label], id)
	return nil
}

// SetNodeProp sets one property of an existing node. Unlike writing
// node.Props directly, the mutation is journaled, so an open Snapshot can
// roll it back; code mutating properties on a graph that may be inside a
// savepoint must use it.
func (g *Graph) SetNodeProp(id OID, key string, v value.Value) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("pg: no node with OID %d", id)
	}
	op := undoOp{kind: undoSetProp, id: id, key: key}
	if old, had := n.Props[key]; had {
		op.old = Props{key: old}
	}
	g.record(op)
	if n.Props == nil {
		n.Props = Props{}
	}
	n.Props[key] = v
	return nil
}

// AddEdge creates a directed edge from one node to another.
func (g *Graph) AddEdge(from, to OID, label string, props Props) (*Edge, error) {
	if _, ok := g.nodes[from]; !ok {
		return nil, fmt.Errorf("pg: edge source OID %d does not exist", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return nil, fmt.Errorf("pg: edge target OID %d does not exist", to)
	}
	e := &Edge{ID: g.next, Label: label, From: from, To: to, Props: cloneEdgeProps(props)}
	g.record(undoOp{kind: undoAddEdge, id: e.ID, prevNext: g.next})
	g.next++
	g.edges[e.ID] = e
	g.byEdgeLabel[label] = sortedset.Insert(g.byEdgeLabel[label], e.ID)
	g.out[from] = sortedset.Insert(g.out[from], e.ID)
	g.in[to] = sortedset.Insert(g.in[to], e.ID)
	return e, nil
}

// MustAddEdge is AddEdge for callers that have just created both endpoints.
// It panics on dangling endpoints, which indicates a programming error.
func (g *Graph) MustAddEdge(from, to OID, label string, props Props) *Edge {
	e, err := g.AddEdge(from, to, label, props)
	if err != nil {
		panic(err)
	}
	return e
}

// AddEdgeWithID creates an edge with a caller-chosen OID, as AddNodeWithID.
func (g *Graph) AddEdgeWithID(id, from, to OID, label string, props Props) (*Edge, error) {
	return g.insertEdge(id, from, to, label, cloneEdgeProps(props))
}

// insertEdge is AddEdgeWithID taking ownership of props.
func (g *Graph) insertEdge(id, from, to OID, label string, props Props) (*Edge, error) {
	if id < 1 {
		return nil, fmt.Errorf("pg: edge OID %d is not positive", id)
	}
	if _, ok := g.edges[id]; ok {
		return nil, fmt.Errorf("pg: edge OID %d already exists", id)
	}
	if _, ok := g.nodes[id]; ok {
		return nil, fmt.Errorf("pg: OID %d already used by a node", id)
	}
	if _, ok := g.nodes[from]; !ok {
		return nil, fmt.Errorf("pg: edge source OID %d does not exist", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return nil, fmt.Errorf("pg: edge target OID %d does not exist", to)
	}
	e := &Edge{ID: id, Label: label, From: from, To: to, Props: props}
	g.record(undoOp{kind: undoAddEdge, id: id, prevNext: g.next})
	g.edges[id] = e
	if id >= g.next {
		g.next = id + 1
	}
	g.byEdgeLabel[label] = sortedset.Insert(g.byEdgeLabel[label], e.ID)
	g.out[from] = sortedset.Insert(g.out[from], e.ID)
	g.in[to] = sortedset.Insert(g.in[to], e.ID)
	return e, nil
}

// Node returns the node with the given OID, or nil.
func (g *Graph) Node(id OID) *Node { return g.nodes[id] }

// Edge returns the edge with the given OID, or nil.
func (g *Graph) Edge(id OID) *Edge { return g.edges[id] }

// Nodes returns all nodes in ascending OID order.
func (g *Graph) Nodes() []*Node {
	ids := make([]OID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sortedset.Sort(ids)
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id]
	}
	return out
}

// Edges returns all edges in ascending OID order.
func (g *Graph) Edges() []*Edge {
	ids := make([]OID, 0, len(g.edges))
	for id := range g.edges {
		ids = append(ids, id)
	}
	sortedset.Sort(ids)
	out := make([]*Edge, len(ids))
	for i, id := range ids {
		out[i] = g.edges[id]
	}
	return out
}

// ScanNodes visits every node as a row, in ascending OID order.
func (g *Graph) ScanNodes(visit func(*NodeRow) bool) {
	var row NodeRow
	for _, n := range g.Nodes() {
		row.SetNode(n)
		if !visit(&row) {
			return
		}
	}
}

// ScanEdges visits every edge as a row, in ascending OID order.
func (g *Graph) ScanEdges(visit func(*EdgeRow) bool) {
	var row EdgeRow
	for _, e := range g.Edges() {
		row.SetEdge(e)
		if !visit(&row) {
			return
		}
	}
}

// NodesByLabel returns the nodes carrying the given label, in OID order.
func (g *Graph) NodesByLabel(label string) []*Node {
	ids := g.byLabel[label]
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id]
	}
	return out
}

// EdgesByLabel returns the edges carrying the given label, in OID order.
func (g *Graph) EdgesByLabel(label string) []*Edge {
	ids := g.byEdgeLabel[label]
	out := make([]*Edge, len(ids))
	for i, id := range ids {
		out[i] = g.edges[id]
	}
	return out
}

// Out returns the outgoing edges of a node, in OID order.
func (g *Graph) Out(id OID) []*Edge {
	ids := g.out[id]
	out := make([]*Edge, len(ids))
	for i, eid := range ids {
		out[i] = g.edges[eid]
	}
	return out
}

// In returns the incoming edges of a node, in OID order.
func (g *Graph) In(id OID) []*Edge {
	ids := g.in[id]
	out := make([]*Edge, len(ids))
	for i, eid := range ids {
		out[i] = g.edges[eid]
	}
	return out
}

// OutDegree returns the number of outgoing edges of a node.
func (g *Graph) OutDegree(id OID) int { return len(g.out[id]) }

// InDegree returns the number of incoming edges of a node.
func (g *Graph) InDegree(id OID) int { return len(g.in[id]) }

// NodeLabels returns every node label present in the graph, sorted.
func (g *Graph) NodeLabels() []string {
	out := make([]string, 0, len(g.byLabel))
	for l, ids := range g.byLabel {
		if len(ids) > 0 {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// EdgeLabels returns every edge label present in the graph, sorted.
func (g *Graph) EdgeLabels() []string {
	out := make([]string, 0, len(g.byEdgeLabel))
	for l, ids := range g.byEdgeLabel {
		if len(ids) > 0 {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// RemoveEdge deletes an edge.
func (g *Graph) RemoveEdge(id OID) error {
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("pg: no edge with OID %d", id)
	}
	g.record(undoOp{kind: undoRemoveEdge, edge: e})
	delete(g.edges, id)
	g.byEdgeLabel[e.Label] = sortedset.Remove(g.byEdgeLabel[e.Label], id)
	g.out[e.From] = sortedset.Remove(g.out[e.From], id)
	g.in[e.To] = sortedset.Remove(g.in[e.To], id)
	return nil
}

// RemoveNode deletes a node together with all its incident edges.
func (g *Graph) RemoveNode(id OID) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("pg: no node with OID %d", id)
	}
	for _, eid := range append(append([]OID(nil), g.out[id]...), g.in[id]...) {
		if _, ok := g.edges[eid]; ok {
			if err := g.RemoveEdge(eid); err != nil {
				return err
			}
		}
	}
	g.record(undoOp{kind: undoRemoveNode, node: n})
	delete(g.nodes, id)
	for _, l := range n.Labels {
		g.byLabel[l] = sortedset.Remove(g.byLabel[l], id)
	}
	delete(g.out, id)
	delete(g.in, id)
	return nil
}

// Clone returns a deep copy of the graph, preserving all OIDs.
func (g *Graph) Clone() *Graph { return mustCopy(g) }

// CopyView builds a fresh mutable graph holding every node and edge of the
// view, OIDs preserved. It reads the view through its scans, so copying a
// frozen snapshot (Thaw, the overlay's Compact) builds no pointer struct but
// the copy's own. It fails only on a view that breaks the graph invariants (a duplicate OID, an
// edge whose endpoint the view does not hold).
func CopyView(v View) (*Graph, error) {
	g := New()
	var err error
	v.ScanNodes(func(r *NodeRow) bool {
		_, err = g.insertNode(r.ID, r.Labels, propMap(r.Props))
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	v.ScanEdges(func(r *EdgeRow) bool {
		var props Props // nil when empty, as cloneEdgeProps keeps it
		if len(r.Props) > 0 {
			props = propMap(r.Props)
		}
		_, err = g.insertEdge(r.ID, r.From, r.To, r.Label, props)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// propMap rebuilds a property map from a row's list.
func propMap(list PropList) Props {
	m := make(Props, len(list))
	for _, p := range list {
		m[p.Key] = p.Val
	}
	return m
}

// mustCopy is CopyView for this package's own views, whose OIDs are unique
// and whose edge endpoints are present by construction.
func mustCopy(v View) *Graph {
	g, err := CopyView(v)
	if err != nil {
		panic(err)
	}
	return g
}
