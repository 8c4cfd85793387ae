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

// NodeChange pairs the pre- and post-batch state of a mutated node. Both
// pointers are private copies or immutable structs; neither changes later.
type NodeChange struct {
	Before *pg.Node
	After  *pg.Node
}

// Diff reports a batch's net effect, each slice in ascending OID order.
// Removed constructs carry their pre-batch state (labels and properties
// included), which is exactly what incremental fact maintenance needs to
// retract their facts. Constructs both created and destroyed inside one
// batch do not appear at all.
type Diff struct {
	AddedNodes   []*pg.Node
	AddedEdges   []*pg.Edge
	RemovedNodes []*pg.Node
	RemovedEdges []*pg.Edge
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

// recorder captures the pre-batch state of every construct a batch touches,
// lazily: the first touch of an OID stores what the overlay showed before
// (nil for then-absent constructs). The stored pointers stay valid because
// overlay mutation is copy-on-write — nothing is ever edited in place.
type recorder struct {
	o       *Overlay
	nodePre map[pg.OID]*pg.Node
	edgePre map[pg.OID]*pg.Edge
	nodeIDs []pg.OID // touch order; sorted at diff time
	edgeIDs []pg.OID
}

func newRecorder(o *Overlay) *recorder {
	return &recorder{o: o, nodePre: map[pg.OID]*pg.Node{}, edgePre: map[pg.OID]*pg.Edge{}}
}

func (r *recorder) touchNode(id pg.OID) {
	if _, ok := r.nodePre[id]; ok {
		return
	}
	r.nodePre[id] = r.o.Node(id)
	r.nodeIDs = append(r.nodeIDs, id)
}

func (r *recorder) touchEdge(id pg.OID) {
	if _, ok := r.edgePre[id]; ok {
		return
	}
	r.edgePre[id] = r.o.Edge(id)
	r.edgeIDs = append(r.edgeIDs, id)
}

func (r *recorder) diff() Diff {
	var d Diff
	sortedset.Sort(r.nodeIDs)
	for _, id := range r.nodeIDs {
		before, after := r.nodePre[id], r.o.Node(id)
		switch {
		case before == nil && after != nil:
			d.AddedNodes = append(d.AddedNodes, after)
		case before != nil && after == nil:
			d.RemovedNodes = append(d.RemovedNodes, before)
		case before != nil && after != nil && !sameNode(before, after):
			d.ChangedNodes = append(d.ChangedNodes, NodeChange{Before: before, After: after})
		}
	}
	sortedset.Sort(r.edgeIDs)
	for _, id := range r.edgeIDs {
		before, after := r.edgePre[id], r.o.Edge(id)
		switch {
		case before == nil && after != nil:
			d.AddedEdges = append(d.AddedEdges, after)
		case before != nil && after == nil:
			d.RemovedEdges = append(d.RemovedEdges, before)
		}
	}
	return d
}

func sameNode(a, b *pg.Node) bool {
	if len(a.Labels) != len(b.Labels) || len(a.Props) != len(b.Props) {
		return false
	}
	for i, l := range a.Labels {
		if b.Labels[i] != l {
			return false
		}
	}
	for k, v := range a.Props {
		bv, ok := b.Props[k]
		// Identity, not value.Equal: a kind change (Int 1 to Float 1.0) is a
		// change, since fact extraction keeps kinds apart.
		if !ok || !value.Identical(v, bv) {
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
	if _, added := o.addNodes[id]; !added && !live(o.base.Columns().NodeOIDs, o.delNodes, id) {
		return 0, fmt.Errorf("no node with OID %d", id)
	}
	return id, nil
}

// live reports whether a base OID column holds id and the deletions do not.
func live(oids []pg.OID, del map[pg.OID]bool, id pg.OID) bool {
	_, ok := slices.BinarySearch(oids, id)
	return ok && !del[id]
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
		rec.touchNode(id)
		o.addNodes[id] = &pg.Node{ID: id, Labels: pg.NormalizeLabels(op.Labels), Props: pg.CloneProps(op.Props)}
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
		rec.touchEdge(id)
		o.addEdges[id] = &pg.Edge{ID: id, Label: op.Label, From: from, To: to, Props: pg.CloneEdgeProps(op.Props)}
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
		rec.touchNode(id)
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
		rec.touchNode(id)
		n := copyNode(o.Node(id))
		n.Props[op.Key] = op.Value
		o.storeNode(id, n)
		return nil

	case OpDelNodeProp:
		id, err := o.resolve(op.Node, names)
		if err != nil {
			return err
		}
		cur := o.Node(id)
		if _, has := cur.Props[op.Key]; !has {
			return nil
		}
		rec.touchNode(id)
		n := copyNode(cur)
		delete(n.Props, op.Key)
		o.storeNode(id, n)
		return nil

	case OpAddLabel:
		id, err := o.resolve(op.Node, names)
		if err != nil {
			return err
		}
		cur := o.Node(id)
		if cur.HasLabel(op.Label) {
			return nil
		}
		rec.touchNode(id)
		n := copyNode(cur)
		n.Labels = pg.NormalizeLabels(append(n.Labels, op.Label))
		o.storeNode(id, n)
		return nil

	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
}

// storeNode installs a copy-on-write replacement for an existing node.
func (o *Overlay) storeNode(id pg.OID, n *pg.Node) {
	if _, added := o.addNodes[id]; added {
		o.addNodes[id] = n
		return
	}
	o.modNodes[id] = n
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
	_, added := o.addEdges[id]
	if !added && !live(o.base.Columns().EdgeOIDs, o.delEdges, id) {
		return fmt.Errorf("no edge with OID %d", id)
	}
	rec.touchEdge(id)
	if added {
		delete(o.addEdges, id)
		o.addEdgeIDs = sortedset.Remove(o.addEdgeIDs, id)
	} else {
		o.delEdges[id] = true
	}
	return nil
}
