package pg

// Columnar export/import of Frozen snapshots. Columns is the wire image of
// a snapshot — exactly the arrays a Frozen holds (adjacency as edge row
// indices), with the symbol table as its name listing. It is the boundary between the storage layer and the
// on-disk snapshot format (internal/snapfile): Columns carries no pg
// internals, so the file format can evolve without reaching into Frozen,
// and FrozenFromColumns re-validates every structural invariant before the
// arrays are trusted, so a decoded file can never hand out a snapshot that
// violates the View contract.

import (
	"fmt"

	"repro/internal/symtab"
	"repro/internal/value"
)

// Columns is the columnar image of a Frozen snapshot: the symbol table as
// its ordered name listing, the node/edge columns, and the CSR adjacency
// with edges referred to by row index instead of pointer. Slices returned
// by Frozen.Columns are shared with the snapshot and must not be modified.
type Columns struct {
	// SymNames lists the interned names in symbol order: SymNames[i] is
	// the string of symtab.Sym(i+1).
	SymNames []string

	// Node columns, ascending OID order. Row i's labels are
	// NodeLabels[NodeLabelOff[i]:NodeLabelOff[i+1]] and its properties the
	// matching window of NodePropKeys/NodePropVals, ascending by symbol.
	NodeOIDs     []OID
	NodeLabelOff []int32
	NodeLabels   []symtab.Sym
	NodePropOff  []int32
	NodePropKeys []symtab.Sym
	NodePropVals []value.Value

	// Edge columns, ascending OID order.
	EdgeOIDs     []OID
	EdgeLabels   []symtab.Sym
	EdgeFrom     []OID
	EdgeTo       []OID
	EdgePropOff  []int32
	EdgePropKeys []symtab.Sym
	EdgePropVals []value.Value

	// CSR adjacency: node row i's outgoing edges are the edge rows
	// OutAdj[OutOff[i]:OutOff[i+1]], ascending; InOff/InAdj mirror for
	// incoming edges.
	OutOff []int32
	OutAdj []int32
	InOff  []int32
	InAdj  []int32
}

// Columns exports the snapshot's columnar arrays, all shared with f.
func (f *Frozen) Columns() Columns {
	return Columns{
		SymNames:     f.syms.Names(),
		NodeOIDs:     f.nodeOIDs,
		NodeLabelOff: f.nodeLabelOff,
		NodeLabels:   f.nodeLabels,
		NodePropOff:  f.nodePropOff,
		NodePropKeys: f.nodePropKeys,
		NodePropVals: f.nodePropVals,
		EdgeOIDs:     f.edgeOIDs,
		EdgeLabels:   f.edgeLabel,
		EdgeFrom:     f.edgeFrom,
		EdgeTo:       f.edgeTo,
		EdgePropOff:  f.edgePropOff,
		EdgePropKeys: f.edgePropKeys,
		EdgePropVals: f.edgePropVals,
		OutOff:       f.outOff,
		OutAdj:       f.outAdj,
		InOff:        f.inOff,
		InAdj:        f.inAdj,
	}
}

// FrozenFromColumns rebuilds a Frozen snapshot from its columnar image,
// validating every structural invariant of the layout before any array is
// trusted: offset monotonicity, symbol ranges, per-row ordering, positive
// OIDs in ascending order with no OID naming both a node and an edge,
// endpoint existence, and full CSR/edge-column agreement. The
// input slices are retained by the snapshot (they may be windows of an
// mmapped file).
//
// Validation is eager and allocation-free — O(nodes+edges) comparisons,
// binary searches instead of hash maps — so a corrupt column set is
// rejected here, never at query time. Nothing else is built: every read is
// served from the retained arrays, which is what makes snapshot cold-start
// cheap — opening a file costs checksums plus these checks, not a heap
// reconstruction of the whole graph.
func FrozenFromColumns(c Columns) (*Frozen, error) {
	syms, err := symtab.FromNames(c.SymNames)
	if err != nil {
		return nil, err
	}
	n, m := len(c.NodeOIDs), len(c.EdgeOIDs)
	nSyms := len(c.SymNames)

	if err := checkOffsets("node label", c.NodeLabelOff, n, len(c.NodeLabels)); err != nil {
		return nil, err
	}
	if err := checkOffsets("node property", c.NodePropOff, n, len(c.NodePropKeys)); err != nil {
		return nil, err
	}
	if err := checkOffsets("edge property", c.EdgePropOff, m, len(c.EdgePropKeys)); err != nil {
		return nil, err
	}
	if err := checkOffsets("out adjacency", c.OutOff, n, len(c.OutAdj)); err != nil {
		return nil, err
	}
	if err := checkOffsets("in adjacency", c.InOff, n, len(c.InAdj)); err != nil {
		return nil, err
	}
	if len(c.NodePropVals) != len(c.NodePropKeys) || len(c.EdgePropVals) != len(c.EdgePropKeys) {
		return nil, fmt.Errorf("pg: property key and value columns disagree")
	}
	if len(c.EdgeLabels) != m || len(c.EdgeFrom) != m || len(c.EdgeTo) != m {
		return nil, fmt.Errorf("pg: edge columns disagree on edge count")
	}
	if len(c.OutAdj) != m || len(c.InAdj) != m {
		return nil, fmt.Errorf("pg: adjacency holds %d/%d entries, want %d", len(c.OutAdj), len(c.InAdj), m)
	}
	for _, s := range c.NodeLabels {
		if s == symtab.None || int(s) > nSyms {
			return nil, fmt.Errorf("pg: node label symbol %d out of range", s)
		}
	}
	for _, s := range c.EdgeLabels {
		if s == symtab.None || int(s) > nSyms {
			return nil, fmt.Errorf("pg: edge label symbol %d out of range", s)
		}
	}
	for _, col := range [][]symtab.Sym{c.NodePropKeys, c.EdgePropKeys} {
		for _, s := range col {
			if s == symtab.None || int(s) > nSyms {
				return nil, fmt.Errorf("pg: property key symbol %d out of range", s)
			}
		}
	}

	// OIDs must be positive and strictly ascending: the View iteration
	// contract and the precondition of every binary search over rows.
	for i, last := 0, OID(0); i < n; i, last = i+1, c.NodeOIDs[i] {
		if c.NodeOIDs[i] <= last {
			return nil, fmt.Errorf("pg: node OIDs not positive and strictly ascending at row %d", i)
		}
	}
	for i, last := 0, OID(0); i < m; i, last = i+1, c.EdgeOIDs[i] {
		if c.EdgeOIDs[i] <= last {
			return nil, fmt.Errorf("pg: edge OIDs not positive and strictly ascending at row %d", i)
		}
	}
	// N and E are disjoint (Section 4): one merge pass over the two
	// ascending columns finds an OID naming both.
	for i, j := 0, 0; i < n && j < m; {
		switch a, b := c.NodeOIDs[i], c.EdgeOIDs[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			return nil, fmt.Errorf("%w: OID %d names both a node and an edge", ErrDuplicateOID, a)
		}
	}

	// Per-row labels must be strictly ascending by name (Node.HasLabel
	// binary-searches) and property keys strictly ascending by symbol (the
	// canonical row order, which also excludes duplicate keys).
	for i := 0; i < n; i++ {
		for p := c.NodeLabelOff[i] + 1; p < c.NodeLabelOff[i+1]; p++ {
			if syms.Name(c.NodeLabels[p-1]) >= syms.Name(c.NodeLabels[p]) {
				return nil, fmt.Errorf("pg: node row %d labels not strictly ascending", i)
			}
		}
		for p := c.NodePropOff[i] + 1; p < c.NodePropOff[i+1]; p++ {
			if c.NodePropKeys[p-1] >= c.NodePropKeys[p] {
				return nil, fmt.Errorf("pg: node row %d: property keys not strictly ascending", i)
			}
		}
	}
	for i := 0; i < m; i++ {
		for p := c.EdgePropOff[i] + 1; p < c.EdgePropOff[i+1]; p++ {
			if c.EdgePropKeys[p-1] >= c.EdgePropKeys[p] {
				return nil, fmt.Errorf("pg: edge row %d: property keys not strictly ascending", i)
			}
		}
	}

	// Endpoints must resolve to node rows. Bulk-loaded graphs have dense
	// consecutive node OIDs, so the finder's O(1) fast path applies; at
	// 100M-edge scale this check would otherwise dominate open latency.
	rf := newRowFinder(c.NodeOIDs)
	for i := 0; i < m; i++ {
		if _, ok := rf.row(c.EdgeFrom[i]); !ok {
			return nil, fmt.Errorf("pg: edge row %d source %d is not a node", i, c.EdgeFrom[i])
		}
		if _, ok := rf.row(c.EdgeTo[i]); !ok {
			return nil, fmt.Errorf("pg: edge row %d target %d is not a node", i, c.EdgeTo[i])
		}
	}

	// CSR adjacency: every window must agree with the edge endpoint
	// columns and stay in ascending edge-row order (= ascending edge OID,
	// the order Graph.Out/In list). Ownership is a direct column comparison — the
	// source of edge row r is node row i iff EdgeFrom[r] == NodeOIDs[i].
	for i := 0; i < n; i++ {
		for p := c.OutOff[i]; p < c.OutOff[i+1]; p++ {
			row := c.OutAdj[p]
			if row < 0 || int(row) >= m {
				return nil, fmt.Errorf("pg: out adjacency entry %d out of range", row)
			}
			if c.EdgeFrom[row] != c.NodeOIDs[i] {
				return nil, fmt.Errorf("pg: out adjacency of node row %d lists edge row %d with a different source", i, row)
			}
			if p > c.OutOff[i] && c.OutAdj[p-1] >= row {
				return nil, fmt.Errorf("pg: out adjacency of node row %d not ascending", i)
			}
		}
		for p := c.InOff[i]; p < c.InOff[i+1]; p++ {
			row := c.InAdj[p]
			if row < 0 || int(row) >= m {
				return nil, fmt.Errorf("pg: in adjacency entry %d out of range", row)
			}
			if c.EdgeTo[row] != c.NodeOIDs[i] {
				return nil, fmt.Errorf("pg: in adjacency of node row %d lists edge row %d with a different target", i, row)
			}
			if p > c.InOff[i] && c.InAdj[p-1] >= row {
				return nil, fmt.Errorf("pg: in adjacency of node row %d not ascending", i)
			}
		}
	}

	return &Frozen{
		syms:         syms,
		nodeOIDs:     c.NodeOIDs,
		nodeLabelOff: c.NodeLabelOff,
		nodeLabels:   c.NodeLabels,
		nodePropOff:  c.NodePropOff,
		nodePropKeys: c.NodePropKeys,
		nodePropVals: c.NodePropVals,
		edgeOIDs:     c.EdgeOIDs,
		edgeLabel:    c.EdgeLabels,
		edgeFrom:     c.EdgeFrom,
		edgeTo:       c.EdgeTo,
		edgePropOff:  c.EdgePropOff,
		edgePropKeys: c.EdgePropKeys,
		edgePropVals: c.EdgePropVals,
		outOff:       c.OutOff,
		outAdj:       c.OutAdj,
		inOff:        c.InOff,
		inAdj:        c.InAdj,
	}, nil
}

// rowFinder resolves OIDs against an ascending OID column, with an O(1)
// arithmetic fast path when the column is dense (consecutive OIDs — true
// for every bulk-loaded or generator-built graph, where OIDs are assigned
// sequentially with no deletions). The column must already be strictly
// ascending; callers validate that first.
type rowFinder struct {
	oids  []OID
	dense bool
	base  OID
}

func newRowFinder(oids []OID) rowFinder {
	rf := rowFinder{oids: oids}
	if n := len(oids); n > 0 && oids[n-1]-oids[0] == OID(n-1) {
		rf.dense, rf.base = true, oids[0]
	}
	return rf
}

func (rf rowFinder) row(id OID) (int32, bool) {
	if rf.dense {
		if id < rf.base || id >= rf.base+OID(len(rf.oids)) {
			return 0, false
		}
		return int32(id - rf.base), true
	}
	return rowOf(rf.oids, id)
}

// checkOffsets validates one CSR offset column: rows+1 entries, starting at
// 0, monotonically non-decreasing, ending exactly at the payload length.
func checkOffsets(what string, off []int32, rows, payload int) error {
	if len(off) != rows+1 {
		return fmt.Errorf("pg: %s offsets hold %d entries, want %d", what, len(off), rows+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("pg: %s offsets start at %d, want 0", what, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("pg: %s offsets decrease at row %d", what, i-1)
		}
	}
	if int(off[rows]) != payload {
		return fmt.Errorf("pg: %s offsets end at %d, want %d", what, off[rows], payload)
	}
	return nil
}
