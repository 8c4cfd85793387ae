package pg

// Bulk ingest: the streaming write path of the 100M-edge data plane.
//
// BulkLoader builds a Frozen snapshot directly from uniform-schema batches,
// never materializing the mutable Graph. The mutable store spends ~hundreds
// of bytes per construct on map-of-pointer bookkeeping; at the paper's §6
// scale (11.97M nodes / 14.18M edges, ~15 min load+flush) and an order of
// magnitude past it, that bookkeeping is the difference between a load that
// fits in memory and one that does not. The loader instead appends straight
// into the snapshot's columnar arrays; it is the one packer of snapshot
// columns, through which FreezeView streams a view's rows too.
//
//   - Add* calls copy batch payloads into the final numeric/value columns
//     (offsets are arithmetic for uniform batches, so they are written on
//     the spot) and record one small metadata entry per batch.
//   - Finish shards the batches across W workers. Workers collect distinct
//     names into per-shard symtab.Sets, which merge into one sorted,
//     deterministic symbol table — node labels, then edge labels, then
//     property keys, each group sorted: a function of content alone.
//     Workers then fill the symbol columns and permute each batch's
//     property values into symbol order, over disjoint ranges, so the
//     result is independent of scheduling (the PR 1 shard-merge
//     discipline).
//   - A sequential CSR pass builds adjacency, and the columns go through
//     FrozenFromColumns — the same validation wall an untrusted on-disk
//     snapshot faces — before anything is handed out.
//
// Determinism contract: for equal batch content (any partitioning, any W)
// the loader produces byte-identical Columns, which snapfile.Encode maps to
// byte-identical files. The differential sweep in internal/fingraph holds
// this against GenerateTopology→Freeze across seeds, sizes and worker
// counts, and the reference packer in freeze_oracle_test.go checks the
// layout itself.
//
// Failure contract: any error (malformed batch, dangling edge, injected
// fault at pg/bulkload) leaves no partial dictionary state — the symbol
// table is private to Finish and is discarded, the loader marks itself
// done, and every later call returns ErrLoaderDone. A fresh loader fed the
// same batches reproduces the identical snapshot, mirroring the savepoint
// atomicity guarantee of the mutable write path.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/symtab"
	"repro/internal/value"
)

// siteBulkLoad brackets per-batch work inside Finish's worker pool: one hit
// per staged batch, so it fires inside FreezeView, Graph.Freeze and the
// overlay's compaction as well. Chaos tests arm it with error/panic plans
// to prove the no-partial-state contract; the load benchmarks arm it with a
// delay plan to measure worker overlap independently of core count.
var siteBulkLoad = fault.Site("pg/bulkload")

// Typed bulk-ingest errors. All loader failures match exactly one of these
// through errors.Is; the loader never panics on malformed input.
var (
	// ErrBadBatch reports a structurally malformed batch: column length
	// disagreements, unsorted or duplicate labels/keys, non-positive OIDs,
	// or a batch that would overflow the columnar offset width.
	ErrBadBatch = errors.New("pg: malformed bulk batch")
	// ErrDuplicateOID reports an OID that is not strictly above every OID
	// already staged in its column — duplicates and out-of-order arrivals
	// alike.
	ErrDuplicateOID = errors.New("pg: duplicate or non-ascending OID in bulk batch")
	// ErrDanglingEdge reports an edge whose endpoint is not among the
	// loaded nodes.
	ErrDanglingEdge = errors.New("pg: bulk edge references missing node")
	// ErrLoaderDone reports a call on a loader that already finished or
	// failed.
	ErrLoaderDone = errors.New("pg: bulk loader already finished")
)

// NodeBatch is a uniform-schema run of nodes: every row carries the same
// sorted label set and the same sorted property-key set, with values
// row-major in key order. Uniformity is what lets the loader write offsets
// arithmetically and resolve symbols once per batch instead of once per
// row; producers emit one batch stream per schema shape (persons,
// companies, …).
type NodeBatch struct {
	Labels []string      // shared by every row; strictly ascending
	Keys   []string      // shared by every row; strictly ascending
	OIDs   []OID         // strictly ascending, above all previously staged node OIDs
	Vals   []value.Value // len(OIDs)*len(Keys), row-major in Keys order
}

// EdgeBatch is a uniform-schema run of edges: one label, one sorted
// property-key set, values row-major in key order.
type EdgeBatch struct {
	Label string
	Keys  []string // strictly ascending
	OIDs  []OID    // strictly ascending, above all previously staged edge OIDs
	From  []OID
	To    []OID
	Vals  []value.Value // len(OIDs)*len(Keys), row-major in Keys order
}

// batchMeta records where one staged batch landed in the columns; Finish's
// workers recompute everything else from the offset columns.
type batchMeta struct {
	labels   []string // nil for edge batches with no labels concept; edges store [1]string
	keys     []string
	rowStart int
	rows     int
}

// BulkLoader assembles a Frozen snapshot from batches. Not safe for
// concurrent use: the producer side is single-writer (the paper's §6
// staging discipline); parallelism lives inside Finish.
type BulkLoader struct {
	workers int
	done    bool

	nodeMeta []batchMeta
	edgeMeta []batchMeta

	nodeOIDs     []OID
	nodeLabelOff []int32
	nodePropOff  []int32
	nodePropVals []value.Value

	edgeOIDs     []OID
	edgeFrom     []OID
	edgeTo       []OID
	edgePropOff  []int32
	edgePropVals []value.Value
}

// NewBulkLoader returns a loader whose Finish phase uses the given worker
// count; workers < 1 means GOMAXPROCS.
func NewBulkLoader(workers int) *BulkLoader {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &BulkLoader{
		workers:      workers,
		nodeLabelOff: []int32{0},
		nodePropOff:  []int32{0},
		edgePropOff:  []int32{0},
	}
}

// Reserve pre-sizes the columns for a load whose totals are known, so the
// append path never reallocates: at most one allocation per column. The
// streaming generator knows its totals after the prepass and calls this
// before the first batch.
func (l *BulkLoader) Reserve(nodes, nodeProps, edges, edgeProps int) {
	l.nodeOIDs = slices.Grow(l.nodeOIDs, nodes)
	l.nodeLabelOff = slices.Grow(l.nodeLabelOff, nodes)
	l.nodePropOff = slices.Grow(l.nodePropOff, nodes)
	l.nodePropVals = slices.Grow(l.nodePropVals, nodeProps)
	l.edgeOIDs = slices.Grow(l.edgeOIDs, edges)
	l.edgeFrom = slices.Grow(l.edgeFrom, edges)
	l.edgeTo = slices.Grow(l.edgeTo, edges)
	l.edgePropOff = slices.Grow(l.edgePropOff, edges)
	l.edgePropVals = slices.Grow(l.edgePropVals, edgeProps)
}

// strictlyAscending reports whether names are sorted with no duplicates.
func strictlyAscending(names []string) bool {
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			return false
		}
	}
	return true
}

// checkOIDRun validates one batch's OID column against the staged tail:
// positive, strictly ascending, strictly above last.
func checkOIDRun(what string, oids []OID, last OID) error {
	for _, id := range oids {
		if id < 1 {
			return fmt.Errorf("%w: %s OID %d is not positive", ErrBadBatch, what, id)
		}
		if id <= last {
			return fmt.Errorf("%w: %s OID %d after %d", ErrDuplicateOID, what, id, last)
		}
		last = id
	}
	return nil
}

// AddNodes stages one node batch. The batch payload is copied; the caller
// may reuse its slices. Strings inside values are shared, not copied.
func (l *BulkLoader) AddNodes(b NodeBatch) error {
	if l.done {
		return ErrLoaderDone
	}
	if !strictlyAscending(b.Labels) {
		return fmt.Errorf("%w: node labels not strictly ascending", ErrBadBatch)
	}
	if !strictlyAscending(b.Keys) {
		return fmt.Errorf("%w: node property keys not strictly ascending", ErrBadBatch)
	}
	rows := len(b.OIDs)
	if len(b.Vals) != rows*len(b.Keys) {
		return fmt.Errorf("%w: node batch holds %d values, want %d", ErrBadBatch, len(b.Vals), rows*len(b.Keys))
	}
	var last OID
	if n := len(l.nodeOIDs); n > 0 {
		last = l.nodeOIDs[n-1]
	}
	if err := checkOIDRun("node", b.OIDs, last); err != nil {
		return err
	}
	if rows == 0 {
		return nil
	}
	labelEnd := int(l.nodeLabelOff[len(l.nodeLabelOff)-1]) + rows*len(b.Labels)
	propEnd := len(l.nodePropVals) + rows*len(b.Keys)
	if labelEnd > math.MaxInt32 || propEnd > math.MaxInt32 || len(l.nodeOIDs)+rows > math.MaxInt32 {
		return fmt.Errorf("%w: node columns would overflow int32 offsets", ErrBadBatch)
	}

	l.nodeMeta = append(l.nodeMeta, batchMeta{
		labels:   append([]string(nil), b.Labels...),
		keys:     append([]string(nil), b.Keys...),
		rowStart: len(l.nodeOIDs),
		rows:     rows,
	})
	l.nodeOIDs = append(l.nodeOIDs, b.OIDs...)
	l.nodePropVals = append(l.nodePropVals, b.Vals...)
	labelOff := l.nodeLabelOff[len(l.nodeLabelOff)-1]
	propOff := l.nodePropOff[len(l.nodePropOff)-1]
	for i := 0; i < rows; i++ {
		labelOff += int32(len(b.Labels))
		propOff += int32(len(b.Keys))
		l.nodeLabelOff = append(l.nodeLabelOff, labelOff)
		l.nodePropOff = append(l.nodePropOff, propOff)
	}
	return nil
}

// AddEdges stages one edge batch. The batch payload is copied.
func (l *BulkLoader) AddEdges(b EdgeBatch) error {
	if l.done {
		return ErrLoaderDone
	}
	if !strictlyAscending(b.Keys) {
		return fmt.Errorf("%w: edge property keys not strictly ascending", ErrBadBatch)
	}
	rows := len(b.OIDs)
	if len(b.From) != rows || len(b.To) != rows {
		return fmt.Errorf("%w: edge batch endpoint columns disagree with %d OIDs", ErrBadBatch, rows)
	}
	if len(b.Vals) != rows*len(b.Keys) {
		return fmt.Errorf("%w: edge batch holds %d values, want %d", ErrBadBatch, len(b.Vals), rows*len(b.Keys))
	}
	var last OID
	if n := len(l.edgeOIDs); n > 0 {
		last = l.edgeOIDs[n-1]
	}
	if err := checkOIDRun("edge", b.OIDs, last); err != nil {
		return err
	}
	if rows == 0 {
		return nil
	}
	propEnd := len(l.edgePropVals) + rows*len(b.Keys)
	if propEnd > math.MaxInt32 || len(l.edgeOIDs)+rows > math.MaxInt32 {
		return fmt.Errorf("%w: edge columns would overflow int32 offsets", ErrBadBatch)
	}

	l.edgeMeta = append(l.edgeMeta, batchMeta{
		labels:   []string{b.Label},
		keys:     append([]string(nil), b.Keys...),
		rowStart: len(l.edgeOIDs),
		rows:     rows,
	})
	l.edgeOIDs = append(l.edgeOIDs, b.OIDs...)
	l.edgeFrom = append(l.edgeFrom, b.From...)
	l.edgeTo = append(l.edgeTo, b.To...)
	l.edgePropVals = append(l.edgePropVals, b.Vals...)
	propOff := l.edgePropOff[len(l.edgePropOff)-1]
	for i := 0; i < rows; i++ {
		propOff += int32(len(b.Keys))
		l.edgePropOff = append(l.edgePropOff, propOff)
	}
	return nil
}

// Finish assembles the staged batches into a validated Frozen snapshot. It
// may be called once; afterwards the loader is done regardless of outcome.
// On error no snapshot and no symbol table escape — the failed load leaves
// no partial dictionary state.
func (l *BulkLoader) Finish() (*Frozen, error) {
	if l.done {
		return nil, ErrLoaderDone
	}
	l.done = true

	syms := l.buildSymbols()
	nodeLabels := make([]symtab.Sym, l.nodeLabelOff[len(l.nodeLabelOff)-1])
	nodePropKeys := make([]symtab.Sym, len(l.nodePropVals))
	edgeLabels := make([]symtab.Sym, len(l.edgeOIDs))
	edgePropKeys := make([]symtab.Sym, len(l.edgePropVals))

	if err := l.fillSymbolColumns(syms, nodeLabels, nodePropKeys, edgeLabels, edgePropKeys); err != nil {
		return nil, err
	}

	outOff, outAdj, inOff, inAdj, err := buildCSR(l.nodeOIDs, l.edgeOIDs, l.edgeFrom, l.edgeTo)
	if err != nil {
		return nil, err
	}

	return FrozenFromColumns(Columns{
		SymNames:     syms.Names(),
		NodeOIDs:     l.nodeOIDs,
		NodeLabelOff: l.nodeLabelOff,
		NodeLabels:   nodeLabels,
		NodePropOff:  l.nodePropOff,
		NodePropKeys: nodePropKeys,
		NodePropVals: l.nodePropVals,
		EdgeOIDs:     l.edgeOIDs,
		EdgeLabels:   edgeLabels,
		EdgeFrom:     l.edgeFrom,
		EdgeTo:       l.edgeTo,
		EdgePropOff:  l.edgePropOff,
		EdgePropKeys: edgePropKeys,
		EdgePropVals: l.edgePropVals,
		OutOff:       outOff,
		OutAdj:       outAdj,
		InOff:        inOff,
		InAdj:        inAdj,
	})
}

// buildSymbols collects the distinct names of every staged batch into
// per-worker shard dictionaries and merges them into one table in one
// deterministic order: sorted node labels, sorted edge labels, sorted
// property keys. The final symbol assignment depends only on the name
// population, not on sharding or worker count.
func (l *BulkLoader) buildSymbols() *symtab.Table {
	w := l.workers
	type shardSets struct{ nodeLabels, edgeLabels, propKeys *symtab.Set }
	shards := make([]shardSets, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		shards[s] = shardSets{symtab.NewSet(), symtab.NewSet(), symtab.NewSet()}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := shards[s]
			for i := s; i < len(l.nodeMeta); i += w {
				for _, lb := range l.nodeMeta[i].labels {
					sh.nodeLabels.Add(lb)
				}
				for _, k := range l.nodeMeta[i].keys {
					sh.propKeys.Add(k)
				}
			}
			for i := s; i < len(l.edgeMeta); i += w {
				sh.edgeLabels.Add(l.edgeMeta[i].labels[0])
				for _, k := range l.edgeMeta[i].keys {
					sh.propKeys.Add(k)
				}
			}
		}(s)
	}
	wg.Wait()

	collect := func(pick func(shardSets) *symtab.Set) []string {
		sets := make([]*symtab.Set, w)
		for i, sh := range shards {
			sets[i] = pick(sh)
		}
		return symtab.MergeSorted(sets...)
	}
	t := symtab.New()
	for _, n := range collect(func(s shardSets) *symtab.Set { return s.nodeLabels }) {
		t.Intern(n)
	}
	for _, n := range collect(func(s shardSets) *symtab.Set { return s.edgeLabels }) {
		t.Intern(n)
	}
	for _, n := range collect(func(s shardSets) *symtab.Set { return s.propKeys }) {
		t.Intern(n)
	}
	return t
}

// fillSymbolColumns resolves each batch's names against the final table and
// writes the symbol columns, permuting property values into symbol order.
// Batches are sharded across workers; every batch writes a disjoint column
// range, so the result is scheduling-independent. The pg/bulkload fault
// site fires once per batch here.
func (l *BulkLoader) fillSymbolColumns(syms *symtab.Table, nodeLabels, nodePropKeys, edgeLabels, edgePropKeys []symtab.Sym) error {
	w := l.workers
	var (
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Guard converts an injected (or organic) panic into an
			// ordinary error, keeping worker crashes contained.
			if err := fault.Guard(siteBulkLoad, func() error {
				var perm []int
				var rowBuf []value.Value
				for i := s; i < len(l.nodeMeta); i += w {
					if failed() {
						return nil
					}
					if err := fault.Hit(siteBulkLoad); err != nil {
						return err
					}
					m := l.nodeMeta[i]
					labelSyms := lookupAll(syms, m.labels)
					lo := l.nodeLabelOff[m.rowStart]
					for r := 0; r < m.rows; r++ {
						copy(nodeLabels[int(lo)+r*len(labelSyms):], labelSyms)
					}
					perm, rowBuf = fillPropColumn(syms, m, l.nodePropOff, nodePropKeys, l.nodePropVals, perm, rowBuf)
				}
				for i := s; i < len(l.edgeMeta); i += w {
					if failed() {
						return nil
					}
					if err := fault.Hit(siteBulkLoad); err != nil {
						return err
					}
					m := l.edgeMeta[i]
					labelSym, _ := syms.Lookup(m.labels[0])
					for r := 0; r < m.rows; r++ {
						edgeLabels[m.rowStart+r] = labelSym
					}
					perm, rowBuf = fillPropColumn(syms, m, l.edgePropOff, edgePropKeys, l.edgePropVals, perm, rowBuf)
				}
				return nil
			}); err != nil {
				setErr(err)
			}
		}(s)
	}
	wg.Wait()
	return firstErr
}

// lookupAll resolves names that buildSymbols is guaranteed to have interned.
func lookupAll(syms *symtab.Table, names []string) []symtab.Sym {
	out := make([]symtab.Sym, len(names))
	for i, n := range names {
		out[i], _ = syms.Lookup(n)
	}
	return out
}

// fillPropColumn writes one batch's property-key symbols and reorders its
// value rows into ascending symbol order. Batch keys arrive sorted by name,
// but symbol order can differ: a key that doubles as a label was interned
// in the earlier label groups and carries a smaller symbol. perm/rowBuf
// are per-worker scratch, returned for reuse.
func fillPropColumn(syms *symtab.Table, m batchMeta, off []int32, keyCol []symtab.Sym, valCol []value.Value, perm []int, rowBuf []value.Value) ([]int, []value.Value) {
	nk := len(m.keys)
	if nk == 0 {
		return perm, rowBuf
	}
	keySyms := lookupAll(syms, m.keys)
	if cap(perm) < nk {
		perm = make([]int, nk)
	}
	perm = perm[:nk]
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return keySyms[perm[a]] < keySyms[perm[b]] })
	identity := true
	for i, p := range perm {
		if p != i {
			identity = false
			break
		}
	}
	sorted := make([]symtab.Sym, nk)
	for i, p := range perm {
		sorted[i] = keySyms[p]
	}
	lo := int(off[m.rowStart])
	for r := 0; r < m.rows; r++ {
		copy(keyCol[lo+r*nk:], sorted)
	}
	if !identity {
		if cap(rowBuf) < nk {
			rowBuf = make([]value.Value, nk)
		}
		rowBuf = rowBuf[:nk]
		for r := 0; r < m.rows; r++ {
			row := valCol[lo+r*nk : lo+(r+1)*nk]
			copy(rowBuf, row)
			for i, p := range perm {
				row[i] = rowBuf[p]
			}
		}
	}
	return perm, rowBuf
}
