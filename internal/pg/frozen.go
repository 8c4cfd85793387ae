package pg

// Frozen is the immutable second phase of a graph dictionary's lifecycle.
// Freeze repacks the mutable store's map-of-pointers representation into
// columnar arrays — interned label symbols, CSR-packed label membership,
// property columns, and CSR in/out adjacency — and the columns are all a
// snapshot holds.
//
// Whole-graph readers walk the columns: ScanNodes/ScanEdges hand out one
// reused row, and counts, degrees, label listings and single properties are
// column arithmetic. The point lookups Node and Edge build a fresh struct
// for the one row asked for, on every call. A single snapshot is safe for
// any number of concurrent readers: nothing on the read path mutates past
// the one-time label-summary build.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/symtab"
	"repro/internal/value"
)

// Frozen is an immutable snapshot of a Graph. It implements View; the label
// lists it returns are shared across calls and must not be modified.
// The zero value is not usable; construct snapshots with Graph.Freeze.
type Frozen struct {
	syms *symtab.Table // labels and property keys, interned in sorted order

	// Columnar node storage, one row per node in ascending OID order.
	// Row i's labels are nodeLabelSyms[nodeLabelOff[i]:nodeLabelOff[i+1]]
	// and its properties the matching window of nodePropKeys/nodePropVals,
	// sorted by key symbol (= lexicographic, see Freeze).
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

	// The label columns summarized — distinct names and rows per label — on
	// the first call that lists or counts labels.
	labelsOnce   sync.Once
	nodeLabelSum labelSummary
	edgeLabelSum labelSummary
}

// Freeze snapshots the graph into its immutable frozen form. The snapshot
// is deep: later mutations of g are invisible to it, and it holds no
// references into g's maps. Cost is O(nodes + edges + properties); the
// intended use is freezing once after the build phase and sharing the
// snapshot across readers, per the staging discipline of Section 6.
//
// Symbol assignment is deterministic: labels and property keys are interned
// in sorted order, so two graphs with equal content freeze to snapshots
// with identical symbol tables.
func (g *Graph) Freeze() *Frozen {
	f := &Frozen{syms: symtab.New()}

	// Intern every name in sorted order: node labels, edge labels, then
	// property keys. Sorted interning makes Sym order match lexicographic
	// order within each group, which the property columns rely on.
	for _, l := range g.NodeLabels() {
		f.syms.Intern(l)
	}
	for _, l := range g.EdgeLabels() {
		f.syms.Intern(l)
	}
	propKeys := map[string]bool{}
	for _, n := range g.nodes {
		for k := range n.Props {
			propKeys[k] = true
		}
	}
	for _, e := range g.edges {
		for k := range e.Props {
			propKeys[k] = true
		}
	}
	sortedKeys := make([]string, 0, len(propKeys))
	for k := range propKeys {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)
	for _, k := range sortedKeys {
		f.syms.Intern(k)
	}

	f.freezeNodes(g)
	f.freezeEdges(g)
	var err error
	f.outOff, f.outAdj, f.inOff, f.inAdj, err = buildCSR(f.nodeOIDs, f.edgeOIDs, f.edgeFrom, f.edgeTo)
	if err != nil {
		panic(err) // cannot happen: Graph enforces endpoint existence
	}
	return f
}

func (f *Frozen) freezeNodes(g *Graph) {
	srcNodes := g.Nodes() // ascending OID
	f.nodeOIDs = make([]OID, len(srcNodes))
	f.nodeLabelOff = make([]int32, len(srcNodes)+1)
	f.nodePropOff = make([]int32, len(srcNodes)+1)
	for i, n := range srcNodes {
		f.nodeOIDs[i] = n.ID
		for _, l := range n.Labels { // already sorted unique
			f.nodeLabels = append(f.nodeLabels, f.sym(l))
		}
		f.nodeLabelOff[i+1] = int32(len(f.nodeLabels))
		f.appendProps(n.Props, &f.nodePropKeys, &f.nodePropVals)
		f.nodePropOff[i+1] = int32(len(f.nodePropKeys))
	}
}

func (f *Frozen) freezeEdges(g *Graph) {
	srcEdges := g.Edges() // ascending OID
	f.edgeOIDs = make([]OID, len(srcEdges))
	f.edgeLabel = make([]symtab.Sym, len(srcEdges))
	f.edgeFrom = make([]OID, len(srcEdges))
	f.edgeTo = make([]OID, len(srcEdges))
	f.edgePropOff = make([]int32, len(srcEdges)+1)
	for i, e := range srcEdges {
		f.edgeOIDs[i] = e.ID
		f.edgeLabel[i] = f.sym(e.Label)
		f.edgeFrom[i] = e.From
		f.edgeTo[i] = e.To
		f.appendProps(e.Props, &f.edgePropKeys, &f.edgePropVals)
		f.edgePropOff[i+1] = int32(len(f.edgePropKeys))
	}
}

// sym interns a label that may be absent from the pre-pass (the empty edge
// label of unlabeled edges reaches here).
func (f *Frozen) sym(name string) symtab.Sym {
	return f.syms.Intern(name)
}

// appendProps appends one construct's properties to the shared key/value
// columns, sorted by key symbol. Within the property-key group symbols were
// assigned in lexicographic order, so symbol order is name order.
func (f *Frozen) appendProps(p Props, keys *[]symtab.Sym, vals *[]value.Value) {
	start := len(*keys)
	for k, v := range p {
		*keys = append(*keys, f.sym(k))
		*vals = append(*vals, v)
	}
	row := (*keys)[start:]
	rowVals := (*vals)[start:]
	sort.Sort(&propSorter{keys: row, vals: rowVals})
}

type propSorter struct {
	keys []symtab.Sym
	vals []value.Value
}

func (s *propSorter) Len() int           { return len(s.keys) }
func (s *propSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *propSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// buildCSR packs the incident-edge lists CSR-style for Freeze and
// BulkLoader.Finish: one counting pass, a prefix sum, and a fill pass in
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
// construction (Freeze) or by validation (FrozenFromColumns), lookup is
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

// Node returns the node with the given OID, or nil, built from the columns
// for this call.
func (f *Frozen) Node(id OID) *Node {
	row, ok := rowOf(f.nodeOIDs, id)
	if !ok {
		return nil
	}
	n := f.makeNode(row)
	return &n
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
	row, ok := rowOf(f.edgeOIDs, id)
	if !ok {
		return nil
	}
	e := f.makeEdge(row)
	return &e
}

// ScanNodes visits every node row of the columns in ascending OID order.
func (f *Frozen) ScanNodes(visit func(*NodeRow) bool) {
	var row NodeRow
	var labels []string
	for i, id := range f.nodeOIDs {
		labels = f.labelNames(labels[:0], int32(i))
		row.ID, row.Labels = id, nil // nil when unlabeled, as in makeNode
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

// rowProps is makeProps for a scanned row: the columnar window [lo,hi) laid
// out in buf, in symbol order, with the same nil convention.
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

// InDegree returns the number of incoming edges of a node.
func (f *Frozen) InDegree(id OID) int {
	if row, ok := rowOf(f.nodeOIDs, id); ok {
		return int(f.inOff[row+1] - f.inOff[row])
	}
	return 0
}

// labelSummary lists the distinct labels of a label column, sorted, and how
// many rows carry each.
type labelSummary struct {
	names []string
	count map[string]int
}

func summarizeLabels(syms *symtab.Table, col []symtab.Sym) labelSummary {
	bySym := make(map[symtab.Sym]int)
	for _, s := range col {
		bySym[s]++
	}
	sum := labelSummary{names: make([]string, 0, len(bySym)), count: make(map[string]int, len(bySym))}
	for s, n := range bySym {
		name := syms.Name(s)
		sum.names = append(sum.names, name)
		sum.count[name] = n
	}
	sort.Strings(sum.names)
	return sum
}

func (f *Frozen) summarizeLabels() {
	f.labelsOnce.Do(func() {
		f.nodeLabelSum = summarizeLabels(f.syms, f.nodeLabels)
		f.edgeLabelSum = summarizeLabels(f.syms, f.edgeLabel)
	})
}

// NodeLabels returns every node label present, sorted, mirroring
// Graph.NodeLabels on the label column. The slice is shared.
func (f *Frozen) NodeLabels() []string {
	f.summarizeLabels()
	return f.nodeLabelSum.names
}

// EdgeLabels returns every edge label present, sorted. The slice is shared.
func (f *Frozen) EdgeLabels() []string {
	f.summarizeLabels()
	return f.edgeLabelSum.names
}

// NodeLabelCount returns the number of nodes carrying the label, read off
// the label summary.
func (f *Frozen) NodeLabelCount(label string) int {
	f.summarizeLabels()
	return f.nodeLabelSum.count[label]
}

// EdgeLabelCount returns the number of edges carrying the label.
func (f *Frozen) EdgeLabelCount(label string) int {
	f.summarizeLabels()
	return f.edgeLabelSum.count[label]
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

// NodeProp reads one node property from the columnar storage without
// building the node: a binary search over the node's key-symbol window.
// It reports false for an absent node or key.
func (f *Frozen) NodeProp(id OID, key string) (value.Value, bool) {
	row, ok := rowOf(f.nodeOIDs, id)
	if !ok {
		return value.Value{}, false
	}
	return f.propAt(f.nodePropKeys, f.nodePropVals, f.nodePropOff, row, key)
}

// EdgeProp reads one edge property from the columnar storage.
func (f *Frozen) EdgeProp(id OID, key string) (value.Value, bool) {
	row, ok := rowOf(f.edgeOIDs, id)
	if !ok {
		return value.Value{}, false
	}
	return f.propAt(f.edgePropKeys, f.edgePropVals, f.edgePropOff, row, key)
}

func (f *Frozen) propAt(keys []symtab.Sym, vals []value.Value, off []int32, row int32, key string) (value.Value, bool) {
	sym, ok := f.syms.Lookup(key)
	if !ok {
		return value.Value{}, false
	}
	lo, hi := int(off[row]), int(off[row+1])
	window := keys[lo:hi]
	i := sort.Search(len(window), func(i int) bool { return window[i] >= sym })
	if i < len(window) && window[i] == sym {
		return vals[lo+i], true
	}
	return value.Value{}, false
}

// Thaw rebuilds a mutable Graph from the snapshot, preserving every OID.
// Freeze and Thaw are exact inverses up to representation: Thaw(Freeze(g))
// has the same nodes, edges, labels and properties as g (the OID allocator
// resumes past the highest OID present).
func (f *Frozen) Thaw() *Graph { return mustCopy(f) }
