package pg

import "repro/internal/sortedset"

// Snapshots give the graph store transactional rollback: Begin opens a
// savepoint, every subsequent mutation appends a compensating entry to the
// graph's undo journal, and Rollback replays the entries in reverse to
// restore the graph — including the OID allocator — to its exact state at
// Begin. Commit discards the savepoint's entries (keeping them only while
// an enclosing savepoint is still open).
//
// Nothing is copied up front: each journal entry captures the minimal prior
// state (the old property value, the allocator position) at the moment of
// the write. Cost is O(mutations), not O(graph).
//
// Savepoints nest with LIFO discipline; finishing them out of order, or
// mutating a graph through anything but its own methods while a savepoint
// is open, breaks the journal. Property writes therefore must go through
// SetNodeProp while a snapshot may be active; writing node.Props directly
// bypasses the journal.

type undoKind uint8

const (
	undoAddNode undoKind = iota
	undoAddEdge
	undoAddLabel
	undoSetProp
	undoRemoveNode
	undoRemoveEdge
)

// undoOp is one compensating journal entry.
type undoOp struct {
	kind     undoKind
	id       OID
	prevNext OID // undoAddNode/undoAddEdge: allocator position before the add
	label    string
	key      string
	old      Props // undoSetProp: single-entry map with the prior value; nil if absent
	node     *Node // undoRemoveNode: the removed node, for reinsertion
	edge     *Edge // undoRemoveEdge: the removed edge, for reinsertion
}

// Snapshot is an open savepoint on a graph.
type Snapshot struct {
	g    *Graph
	mark int
	done bool
}

// Begin opens a savepoint. Every mutation until Commit or Rollback is
// journaled; Rollback restores the graph to this exact point.
func (g *Graph) Begin() *Snapshot {
	g.snapDepth++
	return &Snapshot{g: g, mark: len(g.journal)}
}

// Commit closes the savepoint, keeping its mutations. Journal entries are
// retained while an outer savepoint is still open (so the outer Rollback
// can undo them too) and discarded once the last savepoint closes.
func (s *Snapshot) Commit() {
	s.finish()
	if s.g.snapDepth == 0 {
		s.g.journal = nil
	}
}

// Rollback undoes every mutation made since Begin, in reverse order, and
// closes the savepoint. After Rollback the graph — contents, indexes and
// OID allocator — is byte-identical to its state at Begin, so a retried
// operation replays with the same OIDs and a failed materialization leaves
// no trace.
func (s *Snapshot) Rollback() {
	s.finish()
	g := s.g
	ops := g.journal[s.mark:]
	g.journal = g.journal[:s.mark]
	for i := len(ops) - 1; i >= 0; i-- {
		g.undo(ops[i])
	}
	if g.snapDepth == 0 {
		g.journal = nil
	}
}

func (s *Snapshot) finish() {
	if s.done {
		panic("pg: snapshot finished twice") // savepoint misuse: programming error
	}
	if s.g.snapDepth <= 0 || len(s.g.journal) < s.mark {
		panic("pg: snapshots finished out of LIFO order")
	}
	s.done = true
	s.g.snapDepth--
}

// record appends a journal entry while a savepoint is open.
func (g *Graph) record(op undoOp) {
	if g.snapDepth > 0 {
		g.journal = append(g.journal, op)
	}
}

// undo applies one compensating entry. It manipulates the internal maps
// directly — compensation must not re-journal.
func (g *Graph) undo(op undoOp) {
	switch op.kind {
	case undoAddNode:
		n := g.nodes[op.id]
		delete(g.nodes, op.id)
		for _, l := range n.Labels {
			g.byLabel[l] = sortedset.Remove(g.byLabel[l], op.id)
		}
		delete(g.out, op.id)
		delete(g.in, op.id)
		g.next = op.prevNext
	case undoAddEdge:
		e := g.edges[op.id]
		delete(g.edges, op.id)
		g.byEdgeLabel[e.Label] = sortedset.Remove(g.byEdgeLabel[e.Label], op.id)
		g.out[e.From] = sortedset.Remove(g.out[e.From], op.id)
		g.in[e.To] = sortedset.Remove(g.in[e.To], op.id)
		g.next = op.prevNext
	case undoAddLabel:
		n := g.nodes[op.id]
		for i, l := range n.Labels {
			if l == op.label {
				n.Labels = append(n.Labels[:i], n.Labels[i+1:]...)
				break
			}
		}
		g.byLabel[op.label] = sortedset.Remove(g.byLabel[op.label], op.id)
	case undoSetProp:
		n := g.nodes[op.id]
		if op.old == nil {
			delete(n.Props, op.key)
		} else {
			n.Props[op.key] = op.old[op.key]
		}
	case undoRemoveNode:
		n := op.node
		g.nodes[n.ID] = n
		for _, l := range n.Labels {
			g.byLabel[l] = sortedset.Insert(g.byLabel[l], n.ID)
		}
	case undoRemoveEdge:
		e := op.edge
		g.edges[e.ID] = e
		g.byEdgeLabel[e.Label] = sortedset.Insert(g.byEdgeLabel[e.Label], e.ID)
		g.out[e.From] = sortedset.Insert(g.out[e.From], e.ID)
		g.in[e.To] = sortedset.Insert(g.in[e.To], e.ID)
	}
}
