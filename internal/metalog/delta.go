package metalog

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/vadalog"
)

// ApplyFactsDelta maintains an ExtractFacts database under a graph-level
// mutation batch, given the batch's net effect as an overlay.Diff. It is the
// incremental counterpart of re-running ExtractFacts over the mutated view:
// only the relations named by the diff are touched, and each touched relation
// is spliced in ascending-OID order (relDelta.splice): its row ids into the
// base graph kept as ids and its list rows kept as references, the diff's
// retracted OIDs dropped, and references to the diff's new rows inserted at
// their OIDs. That is the order and the form ExtractFacts produces over the
// mutated overlay — base rows minus tombstones, the delta's rows referenced
// — so the maintained database is indistinguishable (fact-for-fact,
// position-for-position) from a full re-extraction. Position identity
// matters: engine derivation order, and therefore query row order, follows
// relation insertion order. Every other relation of the (sealed) input is
// shared with the result by pointer, the indexes queries have built on it
// included.
//
// The catalog is treated as fixed for the lifetime of a serving lineage. A
// diff that needs columns the catalog lacks — a node or edge label the
// catalog has never seen, or a property key outside the label's layout —
// cannot be folded in without an arity change, so ApplyFactsDelta reports
// ok=false and the caller falls back to a full re-extract under a catalog
// re-inferred from the mutated view. Removals never shrink the catalog:
// an emptied relation is harmless (queries see no matches) and keeping the
// layout stable is what makes the incremental path equivalence-preserving.
//
// A label that names both a node and an edge relation falls back too: its
// nodes-then-edges fact order is not the single ascending run the splice
// relies on. So does a relation ExtractFacts did not build under this
// catalog, which has no row list to splice into.
//
// The input database is not modified; on ok=true the returned database is a
// sealed clone with the delta folded in (or db itself when the diff is empty).
func ApplyFactsDelta(db *vadalog.Database, cat *Catalog, diff overlay.Diff) (*vadalog.Database, bool) {
	if diff.Empty() {
		return db, true
	}
	for _, n := range diff.AddedNodes {
		if !nodeCovered(cat, n) {
			return nil, false
		}
	}
	for _, c := range diff.ChangedNodes {
		if !nodeCovered(cat, c.After) {
			return nil, false
		}
	}
	for _, e := range diff.AddedEdges {
		if !covered(cat.EdgeProps, e.Label, e.Props) {
			return nil, false
		}
	}

	// Collect the per-relation effect: OIDs whose facts retract, and the
	// rows whose facts enter. Within one relation an OID identifies at most
	// one fact (a node contributes one fact per label, an edge one fact to
	// its label's relation), so retraction by OID is exact.
	changes := map[string]*relDelta{}
	touch := func(pred string, nid int, layout []string) *relDelta {
		rd := changes[pred]
		if rd == nil {
			rd = &relDelta{add: &Rows{nid: nid, layout: layout}}
			changes[pred] = rd
		}
		return rd
	}
	delNode := func(n *pg.NodeRow) {
		for _, l := range n.Labels {
			if cat.HasNode(l) {
				rd := touch(l, 1, cat.NodeProps[l])
				rd.del = append(rd.del, int64(n.ID))
			}
		}
	}
	addNode := func(n *pg.NodeRow) {
		for i, l := range n.Labels {
			if !slices.Contains(n.Labels[:i], l) {
				touch(l, 1, cat.NodeProps[l]).add.Add(n.Props, n.ID)
			}
		}
	}
	for _, n := range diff.RemovedNodes {
		delNode(n)
	}
	for _, n := range diff.AddedNodes {
		addNode(n)
	}
	for _, c := range diff.ChangedNodes {
		delNode(c.Before)
		addNode(c.After)
	}
	for _, e := range diff.RemovedEdges {
		if cat.HasEdge(e.Label) {
			rd := touch(e.Label, 3, cat.EdgeProps[e.Label])
			rd.del = append(rd.del, int64(e.ID))
		}
	}
	for _, e := range diff.AddedEdges {
		touch(e.Label, 3, cat.EdgeProps[e.Label]).add.Add(e.Props, e.ID, e.From, e.To)
	}

	out := db.Clone()
	for pred, rd := range changes {
		if cat.HasNode(pred) == cat.HasEdge(pred) {
			return nil, false
		}
		from := &Rows{}
		if old := out.Relation(pred); old != nil {
			r, ok := old.Rows().(*Rows)
			if !ok || old.Arity != rd.add.Arity() {
				return nil, false // not extracted under this layout: re-extract
			}
			from = r
		}
		out.InstallRows(pred, rd.add.Arity(), rd.splice(from))
	}
	return out, true
}

// relDelta is a batch's effect on one relation: the OIDs whose facts
// retract, and the entering constructs as list rows in arrival order.
type relDelta struct {
	del []int64
	add *Rows
}

// splice returns from with the delta applied, in ascending-OID order. from's
// ids are in that order already and an OID names at most one of its facts,
// so each edit — a retracted OID, an entering row — finds its place by
// binary search, and the kept rows between two edits are copied as one run:
// no kept row is looked at. A row entering under an OID that also retracts
// (a changed node) takes the old row's place. A retracted OID the relation
// does not hold is a no-op.
//
// The list rows are shared rather than re-added: the result's list storage
// starts as from's, clipped, so a kept list row's id stays valid and the
// entering rows are appended behind it — the first append by either
// relation copies, so neither, nor a sibling spliced from the same from,
// ever sees another's rows. A retracted list row stays in the storage until
// the lineage is re-extracted.
func (rd *relDelta) splice(from *Rows) *Rows {
	slices.Sort(rd.del)
	dels := slices.Compact(rd.del)
	add := rd.add
	adds := add.ids
	slices.SortFunc(adds, func(a, b int32) int { return cmp.Compare(add.oid(a), add.oid(b)) })
	base := int32(len(from.props))
	next := &Rows{nid: add.nid, layout: add.layout, cols: from.cols,
		oids:  append(slices.Clip(from.oids), add.oids...),
		props: append(slices.Clip(from.props), add.props...),
		ids:   make([]int32, 0, len(from.ids)+len(adds))}
	lo := 0 // from.ids[:lo] is spliced
	for len(dels) > 0 || len(adds) > 0 {
		oid := int64(math.MaxInt64)
		if len(adds) > 0 {
			oid = add.oid(adds[0])
		}
		if len(dels) > 0 {
			oid = min(oid, dels[0])
		}
		at, held := slices.BinarySearchFunc(from.ids[lo:], oid, func(id int32, oid int64) int {
			return cmp.Compare(from.oid(id), oid)
		})
		next.ids = append(next.ids, from.ids[lo:lo+at]...)
		lo += at
		for len(adds) > 0 && add.oid(adds[0]) == oid {
			next.ids = append(next.ids, ^(base + ^adds[0]))
			adds = adds[1:]
		}
		if len(dels) > 0 && dels[0] == oid {
			dels = dels[1:]
			if held {
				lo++
			}
		}
	}
	next.ids = append(next.ids, from.ids[lo:]...)
	return next
}

// nodeCovered reports whether every fact the node would extract to fits the
// catalog's current column layout.
func nodeCovered(cat *Catalog, n *pg.NodeRow) bool {
	for _, l := range n.Labels {
		if !covered(cat.NodeProps, l, n.Props) {
			return false
		}
	}
	return true
}

func covered(layouts map[string][]string, label string, props pg.PropList) bool {
	layout, ok := layouts[label]
	if !ok {
		return false
	}
	for _, p := range props {
		if !sortedset.Contains(layout, p.Key) {
			return false
		}
	}
	return true
}
