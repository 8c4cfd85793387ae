package pg

// Frozen is the immutable second phase of a graph dictionary's lifecycle:
// columnar arrays — interned label symbols, CSR-packed label membership,
// property columns, and CSR in/out adjacency — packed from rows by the
// BulkLoader, through which FreezeView streams any view.
//
// Whole-graph readers walk the columns: ScanNodes/ScanEdges hand out one
// reused row, and counts, out-degrees and label counts are column
// arithmetic. The point lookups Node and Edge build a fresh struct from the
// one row asked for (NodeRowAt, EdgeRowAt), on every call. A single
// snapshot is safe for any number of concurrent readers: nothing on the
// read path mutates past the one-time label count.

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/symtab"
	"repro/internal/value"
)

// Frozen is an immutable snapshot of a Graph. It implements View.
// The zero value is not usable; construct snapshots with Graph.Freeze,
// FreezeView, a BulkLoader or FrozenFromColumns.
type Frozen struct {
	syms *symtab.Table // labels and property keys, interned in sorted order

	// Columnar node storage, one row per node in ascending OID order.
	// Row i's labels are nodeLabels[nodeLabelOff[i]:nodeLabelOff[i+1]]
	// and its properties the matching window of nodePropKeys/nodePropVals,
	// sorted by key symbol.
	nodeOIDs     []OID
	nodeLabelOff []int32
	nodeLabels   []symtab.Sym
	nodePropOff  []int32
	nodePropKeys []symtab.Sym
	nodePropVals []value.Value

	// Columnar edge storage, ascending OID order.
	edgeOIDs     []OID
	edgeLabel    []symtab.Sym
	edgeFrom     []OID
	edgeTo       []OID
	edgePropOff  []int32
	edgePropKeys []symtab.Sym
	edgePropVals []value.Value

	// CSR adjacency: outAdj groups the edge rows by source node row
	// (ascending within a row), indexed by outOff; inAdj/inOff group by
	// target.
	outOff []int32
	outAdj []int32
	inOff  []int32
	inAdj  []int32

	// The rows per label of the label columns, counted on the first call
	// that asks for one.
	labelsOnce     sync.Once
	nodeLabelCount map[string]int
	edgeLabelCount map[string]int
}

// Freeze snapshots the graph into its immutable frozen form: FreezeView
// over the graph. The snapshot is deep: later mutations of g are invisible
// to it. Cost is O(nodes + edges + properties); the intended use is
// freezing once after the build phase and sharing the snapshot across
// readers, per the staging discipline of Section 6. A Graph's OIDs are
// positive and unique and its edges' endpoints present, so only an armed
// pg/bulkload fault can fail the freeze, and Freeze panics on it.
func (g *Graph) Freeze() *Frozen {
	f, err := FreezeView(g)
	if err != nil {
		panic(err)
	}
	return f
}

// FreezeView packs a view into a snapshot through a BulkLoader. It scans the
// nodes, then the edges, in OID order and stages every run of consecutive
// rows of one shape as one batch: a node's shape is its labels and its keys
// in name order, an edge's its label and keys. The columns pass
// FrozenFromColumns' checks like any snapshot file's, and equal content
// freezes to equal columns whatever the view: labels and property keys are
// interned from content, in the loader's canonical order.
func FreezeView(v View) (*Frozen, error) {
	l := NewBulkLoader(0)
	l.Reserve(v.NumNodes(), 0, v.NumEdges(), 0)
	var (
		err   error
		run   shapeRun
		nb    NodeBatch
		eb    EdgeBatch
		label [1]string
	)
	v.ScanNodes(func(r *NodeRow) bool {
		if run.next(r.Labels, r.Props) && len(nb.OIDs) > 0 {
			err = l.AddNodes(nb)
			nb.OIDs, nb.Vals = nb.OIDs[:0], nb.Vals[:0]
		}
		nb.Labels, nb.Keys = run.labels, run.keys
		nb.OIDs, nb.Vals = append(nb.OIDs, r.ID), append(nb.Vals, run.vals...)
		return err == nil
	})
	if err == nil {
		err = l.AddNodes(nb)
	}
	v.ScanEdges(func(r *EdgeRow) bool {
		if label[0] = r.Label; run.next(label[:], r.Props) && len(eb.OIDs) > 0 {
			err = l.AddEdges(eb)
			eb.OIDs, eb.From, eb.To, eb.Vals = eb.OIDs[:0], eb.From[:0], eb.To[:0], eb.Vals[:0]
		}
		eb.Label, eb.Keys = run.labels[0], run.keys
		eb.OIDs, eb.From, eb.To = append(eb.OIDs, r.ID), append(eb.From, r.From), append(eb.To, r.To)
		eb.Vals = append(eb.Vals, run.vals...)
		return err == nil
	})
	if err == nil {
		err = l.AddEdges(eb)
	}
	if err != nil {
		return nil, err
	}
	return l.Finish()
}

// shapeRun follows FreezeView's scan: the shape — labels and key names — of
// the current run of rows, and the current row's values in key-name order.
type shapeRun struct {
	labels, keys []string
	vals         []value.Value
	sorted       PropList
}

// next takes in one row and reports whether it starts a new run. A new
// shape gets fresh label and key slices, so the staged batch of the run
// before keeps its own.
func (s *shapeRun) next(labels []string, props PropList) bool {
	byKey := func(a, b Prop) int { return strings.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(props, byKey) { // a bulk-loaded row is in symbol order
		s.sorted = append(s.sorted[:0], props...)
		slices.SortFunc(s.sorted, byKey)
		props = s.sorted
	}
	same := slices.Equal(s.labels, labels) && len(s.keys) == len(props)
	s.vals = s.vals[:0]
	for i, p := range props {
		same = same && s.keys[i] == p.Key
		s.vals = append(s.vals, p.Val)
	}
	if !same {
		s.labels, s.keys = slices.Clone(labels), make([]string, len(props))
		for i, p := range props {
			s.keys[i] = p.Key
		}
	}
	return !same
}

// buildCSR packs the incident-edge lists CSR-style for BulkLoader.Finish:
// one counting pass, a prefix sum, and a fill pass in
// ascending edge-row order, so each node's window is sorted by edge OID like
// Graph.Out/In. Node and edge OID columns must be strictly ascending.
// Endpoint resolution uses the dense fast path when node OIDs are
// consecutive — the shape every bulk load of generated data has — and falls
// back to binary search otherwise; an endpoint that is no node fails with
// ErrDanglingEdge.
func buildCSR(nodeOIDs, edgeOIDs, edgeFrom, edgeTo []OID) (outOff, outAdj, inOff, inAdj []int32, err error) {
	n, m := len(nodeOIDs), len(edgeOIDs)
	rf := newRowFinder(nodeOIDs)
	outOff = make([]int32, n+1)
	inOff = make([]int32, n+1)
	fromRow := make([]int32, m)
	toRow := make([]int32, m)
	for i := 0; i < m; i++ {
		fr, ok := rf.row(edgeFrom[i])
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("%w: edge %d source %d", ErrDanglingEdge, edgeOIDs[i], edgeFrom[i])
		}
		to, ok := rf.row(edgeTo[i])
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("%w: edge %d target %d", ErrDanglingEdge, edgeOIDs[i], edgeTo[i])
		}
		fromRow[i], toRow[i] = fr, to
		outOff[fr+1]++
		inOff[to+1]++
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
		inOff[i+1] += inOff[i]
	}
	outAdj = make([]int32, m)
	inAdj = make([]int32, m)
	outNext := make([]int32, n)
	inNext := make([]int32, n)
	copy(outNext, outOff[:n])
	copy(inNext, inOff[:n])
	for i := 0; i < m; i++ {
		outAdj[outNext[fromRow[i]]] = int32(i)
		outNext[fromRow[i]]++
		inAdj[inNext[toRow[i]]] = int32(i)
		inNext[toRow[i]]++
	}
	return outOff, outAdj, inOff, inAdj, nil
}

// rowOf binary-searches an ascending OID column for id, returning the row
// index. This replaces the old OID→row hash maps: the columns are sorted by
// validation (FrozenFromColumns, which every snapshot passes), lookup is
// O(log n) with no per-snapshot index to build.
func rowOf(oids []OID, id OID) (int32, bool) {
	lo, hi := 0, len(oids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if oids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(oids) && oids[lo] == id {
		return int32(lo), true
	}
	return 0, false
}

// NumNodes returns the number of nodes.
func (f *Frozen) NumNodes() int { return len(f.nodeOIDs) }

// NumEdges returns the number of edges.
func (f *Frozen) NumEdges() int { return len(f.edgeOIDs) }

// Node returns the node with the given OID, or nil, built for this call
// from its row as NodeRowAt reads it.
func (f *Frozen) Node(id OID) *Node {
	if row, ok := rowOf(f.nodeOIDs, id); ok {
		return f.NodeRowAt(int(row)).Node()
	}
	return nil
}

// labelNames appends the names of a node row's labels to buf.
func (f *Frozen) labelNames(buf []string, row int32) []string {
	for _, s := range f.nodeLabels[f.nodeLabelOff[row]:f.nodeLabelOff[row+1]] {
		buf = append(buf, f.syms.Name(s))
	}
	return buf
}

// Edge returns the edge with the given OID, or nil, built for this call as
// for Node.
func (f *Frozen) Edge(id OID) *Edge {
	if row, ok := rowOf(f.edgeOIDs, id); ok {
		return f.EdgeRowAt(int(row)).Edge()
	}
	return nil
}

// NodeRowAt returns node row i of the columns (0 <= i < NumNodes) as a row
// of its own: what ScanNodes presents for it, in fresh slices that no later
// read reuses. It is the one read of a single row — the point lookups wrap
// it, and an overlay's copy-on-write starts from it.
func (f *Frozen) NodeRowAt(i int) *NodeRow {
	r := &NodeRow{ID: f.nodeOIDs[i], Labels: f.labelNames(nil, int32(i))}
	r.Props, _ = f.rowProps(nil, f.nodePropKeys, f.nodePropVals, f.nodePropOff[i], f.nodePropOff[i+1], false)
	return r
}

// EdgeRowAt returns edge row i of the columns as a row of its own.
func (f *Frozen) EdgeRowAt(i int) *EdgeRow {
	r := &EdgeRow{ID: f.edgeOIDs[i], Label: f.syms.Name(f.edgeLabel[i]), From: f.edgeFrom[i], To: f.edgeTo[i]}
	r.Props, _ = f.rowProps(nil, f.edgePropKeys, f.edgePropVals, f.edgePropOff[i], f.edgePropOff[i+1], true)
	return r
}

// ScanNodes visits every node row of the columns in ascending OID order.
func (f *Frozen) ScanNodes(visit func(*NodeRow) bool) {
	var row NodeRow
	var labels []string
	for i, id := range f.nodeOIDs {
		labels = f.labelNames(labels[:0], int32(i))
		row.ID, row.Labels = id, nil // nil when unlabeled
		if len(labels) > 0 {
			row.Labels = labels
		}
		row.Props, row.buf = f.rowProps(row.buf, f.nodePropKeys, f.nodePropVals, f.nodePropOff[i], f.nodePropOff[i+1], false)
		if !visit(&row) {
			return
		}
	}
}

// ScanEdges visits every edge row of the columns in ascending OID order.
func (f *Frozen) ScanEdges(visit func(*EdgeRow) bool) {
	var row EdgeRow
	for i, id := range f.edgeOIDs {
		row.ID, row.Label, row.From, row.To = id, f.syms.Name(f.edgeLabel[i]), f.edgeFrom[i], f.edgeTo[i]
		row.Props, row.buf = f.rowProps(row.buf, f.edgePropKeys, f.edgePropVals, f.edgePropOff[i], f.edgePropOff[i+1], true)
		if !visit(&row) {
			return
		}
	}
}

// rowProps lays the columnar window [lo,hi) out in buf, in symbol order;
// with nilWhenEmpty (an edge's convention), an empty window is a nil list.
func (f *Frozen) rowProps(buf PropList, keys []symtab.Sym, vals []value.Value, lo, hi int32, nilWhenEmpty bool) (props, _ PropList) {
	if hi == lo && nilWhenEmpty {
		return nil, buf
	}
	if buf == nil {
		buf = make(PropList, 0, hi-lo)
	}
	buf = buf[:0]
	for p := lo; p < hi; p++ {
		buf = append(buf, Prop{f.syms.Name(keys[p]), vals[p]})
	}
	return buf, buf
}

// OutDegree returns the number of outgoing edges of a node. It reads only
// the CSR offsets.
func (f *Frozen) OutDegree(id OID) int {
	if row, ok := rowOf(f.nodeOIDs, id); ok {
		return int(f.outOff[row+1] - f.outOff[row])
	}
	return 0
}

// labelCounts maps each label of a label column to the number of rows
// carrying it.
func labelCounts(syms *symtab.Table, col []symtab.Sym) map[string]int {
	bySym := make(map[symtab.Sym]int)
	for _, s := range col {
		bySym[s]++
	}
	count := make(map[string]int, len(bySym))
	for s, n := range bySym {
		count[syms.Name(s)] = n
	}
	return count
}

func (f *Frozen) countLabels() {
	f.labelsOnce.Do(func() {
		f.nodeLabelCount = labelCounts(f.syms, f.nodeLabels)
		f.edgeLabelCount = labelCounts(f.syms, f.edgeLabel)
	})
}

// NodeLabelCount returns the number of nodes carrying the label, read off
// the label counts.
func (f *Frozen) NodeLabelCount(label string) int {
	f.countLabels()
	return f.nodeLabelCount[label]
}

// EdgeLabelCount returns the number of edges carrying the label.
func (f *Frozen) EdgeLabelCount(label string) int {
	f.countLabels()
	return f.edgeLabelCount[label]
}

// Symbols exposes the snapshot's interned name table: labels first (node
// then edge, each sorted), then property keys (sorted). The table must not
// be mutated.
func (f *Frozen) Symbols() *symtab.Table { return f.syms }

// MaxOID returns the largest OID in the snapshot, or 0 when it is empty.
// Writers layering mutations over a snapshot (internal/overlay) allocate
// fresh OIDs strictly above it, which matches where Thaw's allocator
// resumes — so overlay-assigned and thaw-and-mutate-assigned OIDs agree.
func (f *Frozen) MaxOID() OID {
	var max OID
	if n := len(f.nodeOIDs); n > 0 && f.nodeOIDs[n-1] > max {
		max = f.nodeOIDs[n-1]
	}
	if m := len(f.edgeOIDs); m > 0 && f.edgeOIDs[m-1] > max {
		max = f.edgeOIDs[m-1]
	}
	return max
}

// Thaw rebuilds a mutable Graph from the snapshot, preserving every OID.
// Freeze and Thaw are exact inverses up to representation: Thaw(Freeze(g))
// has the same nodes, edges, labels and properties as g (the OID allocator
// resumes past the highest OID present).
func (f *Frozen) Thaw() *Graph { return mustCopy(f) }
