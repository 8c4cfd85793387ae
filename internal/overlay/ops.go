package overlay

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/value"
)

// OpKind names a mutation operation. The kinds mirror pg.Graph's mutators
// (plus property deletion, which pg expresses as a direct map write): the
// overlay's write surface is exactly the builder phase's.
type OpKind string

const (
	OpAddNode     OpKind = "add_node"
	OpAddEdge     OpKind = "add_edge"
	OpRemoveNode  OpKind = "remove_node"
	OpRemoveEdge  OpKind = "remove_edge"
	OpSetNodeProp OpKind = "set_node_prop"
	OpDelNodeProp OpKind = "del_node_prop"
	OpAddLabel    OpKind = "add_label"
)

// Ref names a node: either by OID or by the batch-local handle an earlier
// add_node op in the same batch declared. Exactly one of the two is set.
type Ref struct {
	ID   pg.OID
	Name string
}

func (r Ref) String() string {
	if r.Name != "" {
		return "$" + r.Name
	}
	return fmt.Sprint(r.ID)
}

// Op is one mutation. Which fields apply depends on Kind:
//
//	add_node       Name? Labels Props
//	add_edge       From To Label Props
//	remove_node    Node
//	remove_edge    Edge
//	set_node_prop  Node Key Value
//	del_node_prop  Node Key
//	add_label      Node Label
type Op struct {
	Kind   OpKind
	Name   string // add_node: optional batch-local handle for later refs
	Labels []string
	Label  string
	Props  pg.Props
	Node   Ref
	From   Ref
	To     Ref
	Edge   pg.OID
	Key    string
	Value  value.Value
}

// NodeChange pairs the pre- and post-batch rows of a mutated node. Neither
// changes later.
type NodeChange struct {
	Before *pg.NodeRow
	After  *pg.NodeRow
}

// Diff reports a batch's net effect, each slice in ascending OID order.
// Removed constructs carry their pre-batch row (labels and properties
// included), which is exactly what incremental fact maintenance needs to
// retract their facts. Constructs both created and destroyed inside one
// batch do not appear at all. The rows are the overlay's own, shared, never
// written again: read a property with Props.Get.
type Diff struct {
	AddedNodes   []*pg.NodeRow
	AddedEdges   []*pg.EdgeRow
	RemovedNodes []*pg.NodeRow
	RemovedEdges []*pg.EdgeRow
	ChangedNodes []NodeChange
	// Handles maps the batch's add_node handles to the OIDs they were
	// assigned, so callers can address the created nodes in later batches.
	// Handles of nodes removed later in the same batch still appear here.
	Handles map[string]pg.OID
}

// Empty reports whether the batch had no net effect.
func (d Diff) Empty() bool {
	return len(d.AddedNodes) == 0 && len(d.AddedEdges) == 0 &&
		len(d.RemovedNodes) == 0 && len(d.RemovedEdges) == 0 && len(d.ChangedNodes) == 0
}

// recorder captures the pre-batch row of every construct a batch touches,
// lazily: the first touch of an OID stores the row the overlay showed
// before (nil for a then-absent construct). The stored rows stay valid
// because overlay mutation is copy-on-write — no row is edited in place.
type recorder struct {
	o       *Overlay
	nodePre map[pg.OID]*pg.NodeRow
	edgePre map[pg.OID]*pg.EdgeRow
	nodeIDs []pg.OID // touch order; sorted at diff time
	edgeIDs []pg.OID
}

func newRecorder(o *Overlay) *recorder {
	return &recorder{o: o, nodePre: map[pg.OID]*pg.NodeRow{}, edgePre: map[pg.OID]*pg.EdgeRow{}}
}

// touchNode records cur, the row the overlay shows for id before the op
// about to change it, if this is the batch's first touch of id.
func (r *recorder) touchNode(id pg.OID, cur *pg.NodeRow) {
	if _, ok := r.nodePre[id]; !ok {
		r.nodePre[id] = cur
		r.nodeIDs = append(r.nodeIDs, id)
	}
}

func (r *recorder) touchEdge(id pg.OID, cur *pg.EdgeRow) {
	if _, ok := r.edgePre[id]; !ok {
		r.edgePre[id] = cur
		r.edgeIDs = append(r.edgeIDs, id)
	}
}

func (r *recorder) diff() Diff {
	var d Diff
	sortedset.Sort(r.nodeIDs)
	for _, id := range r.nodeIDs {
		before, after := r.nodePre[id], r.o.nodeRow(id)
		switch {
		case before == nil && after != nil:
			d.AddedNodes = append(d.AddedNodes, after)
		case before != nil && after == nil:
			d.RemovedNodes = append(d.RemovedNodes, before)
		case before != nil && after != nil && !sameRow(before, after):
			d.ChangedNodes = append(d.ChangedNodes, NodeChange{Before: before, After: after})
		}
	}
	sortedset.Sort(r.edgeIDs)
	for _, id := range r.edgeIDs {
		before, after := r.edgePre[id], r.o.edgeRow(id)
		switch {
		case before == nil && after != nil:
			d.AddedEdges = append(d.AddedEdges, after)
		case before != nil && after == nil:
			d.RemovedEdges = append(d.RemovedEdges, before)
		}
	}
	return d
}

// sameRow reports whether two rows of a node hold the same labels and the
// same properties, in whatever order.
func sameRow(a, b *pg.NodeRow) bool {
	if !slices.Equal(a.Labels, b.Labels) || len(a.Props) != len(b.Props) {
		return false
	}
	for _, p := range a.Props {
		v, ok := b.Props.Get(p.Key)
		// Identity, not value.Equal: a kind change (Int 1 to Float 1.0) is a
		// change, since fact extraction keeps kinds apart.
		if !ok || !value.Identical(p.Val, v) {
			return false
		}
	}
	return true
}

// Apply applies one batch of mutations in order and returns its net Diff.
// Application is NOT atomic: on error the overlay may hold a prefix of the
// batch. Callers needing all-or-nothing semantics (the server's /mutate
// path) apply to a Clone and swap only on success.
func (o *Overlay) Apply(ops []Op) (Diff, error) {
	if err := fault.Hit(siteApply); err != nil {
		return Diff{}, err
	}
	rec := newRecorder(o)
	names := map[string]pg.OID{}
	for i, op := range ops {
		if err := o.applyOp(op, names, rec); err != nil {
			return Diff{}, fmt.Errorf("overlay: op %d (%s): %w", i, op.Kind, err)
		}
	}
	diff := rec.diff()
	if len(names) > 0 {
		diff.Handles = names
	}
	return diff, nil
}

// resolve maps a Ref to the OID of an existing merged node: an added one or
// a base row not deleted.
func (o *Overlay) resolve(r Ref, names map[string]pg.OID) (pg.OID, error) {
	id := r.ID
	if r.Name != "" {
		bound, ok := names[r.Name]
		if !ok {
			return 0, fmt.Errorf("unknown node handle %q", r.Name)
		}
		id = bound
	}
	_, inBase := slices.BinarySearch(o.base.Columns().NodeOIDs, id)
	if _, added := o.addNodes[id]; !added && (!inBase || o.delNodes[id]) {
		return 0, fmt.Errorf("no node with OID %d", id)
	}
	return id, nil
}

func (o *Overlay) applyOp(op Op, names map[string]pg.OID, rec *recorder) error {
	switch op.Kind {
	case OpAddNode:
		if op.Name != "" {
			if _, dup := names[op.Name]; dup {
				return fmt.Errorf("duplicate node handle %q", op.Name)
			}
		}
		id := o.next
		o.next++
		rec.touchNode(id, nil)
		props := pg.PropListOf(op.Props)
		if props == nil {
			props = pg.PropList{} // a node's list is never nil
		}
		o.addNodes[id] = &pg.NodeRow{ID: id, Labels: pg.NormalizeLabels(op.Labels), Props: props}
		o.addNodeIDs = append(o.addNodeIDs, id) // ascending by construction
		if op.Name != "" {
			names[op.Name] = id
		}
		return nil

	case OpAddEdge:
		from, err := o.resolve(op.From, names)
		if err != nil {
			return fmt.Errorf("edge source: %w", err)
		}
		to, err := o.resolve(op.To, names)
		if err != nil {
			return fmt.Errorf("edge target: %w", err)
		}
		id := o.next
		o.next++
		rec.touchEdge(id, nil)
		o.addEdges[id] = &pg.EdgeRow{ID: id, Label: op.Label, From: from, To: to, Props: pg.PropListOf(op.Props)}
		o.addEdgeIDs = append(o.addEdgeIDs, id)
		return nil

	case OpRemoveEdge:
		return o.removeEdge(op.Edge, rec)

	case OpRemoveNode:
		id, err := o.resolve(op.Node, names)
		if err != nil {
			return err
		}
		// Cascade: drop the incident merged edges first.
		for _, eid := range o.incident(id) {
			if err := o.removeEdge(eid, rec); err != nil {
				return err
			}
		}
		rec.touchNode(id, o.nodeRow(id))
		if _, added := o.addNodes[id]; added {
			delete(o.addNodes, id)
			o.addNodeIDs = sortedset.Remove(o.addNodeIDs, id)
		} else {
			o.delNodes[id] = true
			delete(o.modNodes, id)
		}
		return nil

	case OpSetNodeProp:
		id, err := o.resolve(op.Node, names)
		if err != nil {
			return err
		}
		cur := o.nodeRow(id)
		rec.touchNode(id, cur)
		props := append(make(pg.PropList, 0, len(cur.Props)+1), cur.Props...)
		if i := slices.IndexFunc(props, func(p pg.Prop) bool { return p.Key == op.Key }); i >= 0 {
			props[i].Val = op.Value
		} else {
			props = append(props, pg.Prop{Key: op.Key, Val: op.Value})
		}
		o.storeNode(&pg.NodeRow{ID: id, Labels: cur.Labels, Props: props})
		return nil

	case OpDelNodeProp:
		id, err := o.resolve(op.Node, names)
		if err != nil {
			return err
		}
		cur := o.nodeRow(id)
		i := slices.IndexFunc(cur.Props, func(p pg.Prop) bool { return p.Key == op.Key })
		if i < 0 {
			return nil
		}
		rec.touchNode(id, cur)
		props := slices.Delete(slices.Clone(cur.Props), i, i+1)
		o.storeNode(&pg.NodeRow{ID: id, Labels: cur.Labels, Props: props})
		return nil

	case OpAddLabel:
		id, err := o.resolve(op.Node, names)
		if err != nil {
			return err
		}
		cur := o.nodeRow(id)
		if _, has := slices.BinarySearch(cur.Labels, op.Label); has {
			return nil
		}
		rec.touchNode(id, cur)
		labels := pg.NormalizeLabels(append(slices.Clip(cur.Labels), op.Label))
		o.storeNode(&pg.NodeRow{ID: id, Labels: labels, Props: cur.Props})
		return nil

	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
}

// storeNode installs a copy-on-write replacement row for an existing node.
func (o *Overlay) storeNode(n *pg.NodeRow) {
	if _, added := o.addNodes[n.ID]; added {
		o.addNodes[n.ID] = n
		return
	}
	o.modNodes[n.ID] = n
}

// incident lists the OIDs of a merged node's incident edges: its outgoing
// edges, then its incoming ones, each in ascending edge-OID order. A
// self-loop is listed once, among the outgoing edges. A base node's edges
// come off the base's CSR windows minus the deleted ones, ahead of the added
// edges, which a pass over addEdgeIDs finds: their OIDs are all larger (as
// are an added node's, so it has no base row).
func (o *Overlay) incident(id pg.OID) []pg.OID {
	cols := o.base.Columns()
	row, inBase := slices.BinarySearch(cols.NodeOIDs, id)
	var out []pg.OID
	collect := func(off, adj []int32, in bool) {
		if inBase {
			for _, r := range adj[off[row]:off[row+1]] {
				if eid := cols.EdgeOIDs[r]; !o.delEdges[eid] && !(in && cols.EdgeFrom[r] == id) {
					out = append(out, eid)
				}
			}
		}
		for _, eid := range o.addEdgeIDs {
			if e := o.addEdges[eid]; (!in && e.From == id) || (in && e.To == id && e.From != id) {
				out = append(out, eid)
			}
		}
	}
	collect(cols.OutOff, cols.OutAdj, false)
	collect(cols.InOff, cols.InAdj, true)
	return out
}

// removeEdge drops one merged edge: an added edge leaves the additions, a
// base edge joins the deletions.
func (o *Overlay) removeEdge(id pg.OID, rec *recorder) error {
	cur := o.edgeRow(id)
	if cur == nil {
		return fmt.Errorf("no edge with OID %d", id)
	}
	rec.touchEdge(id, cur)
	if _, added := o.addEdges[id]; added {
		delete(o.addEdges, id)
		o.addEdgeIDs = sortedset.Remove(o.addEdgeIDs, id)
	} else {
		o.delEdges[id] = true
	}
	return nil
}
