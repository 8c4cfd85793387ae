package metalog

import (
	"cmp"
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
// is rebuilt as a merge in ascending-OID order: its row ids into the base
// graph kept as ids and its list rows kept as references, the diff's
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
// nodes-then-edges fact order is not the single ascending run the merge below
// relies on. So does a relation ExtractFacts did not build under this
// catalog, which has no row list to merge into.
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
	type relDelta struct {
		del map[int64]bool
		add *Rows
	}
	changes := map[string]*relDelta{}
	touch := func(pred string, nid int, layout []string) *relDelta {
		rd := changes[pred]
		if rd == nil {
			rd = &relDelta{del: map[int64]bool{}, add: newRows(nid, layout)}
			changes[pred] = rd
		}
		return rd
	}
	delNode := func(n *pg.NodeRow) {
		for _, l := range n.Labels {
			if cat.HasNode(l) {
				touch(l, 1, cat.NodeProps[l]).del[int64(n.ID)] = true
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
			touch(e.Label, 3, cat.EdgeProps[e.Label]).del[int64(e.ID)] = true
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
		// The kept rows are in ascending-OID order already and an OID names at
		// most one fact of the relation: sort the few new rows and merge.
		add := rd.add.ids
		slices.SortFunc(add, func(a, b int32) int { return cmp.Compare(rd.add.oid(a), rd.add.oid(b)) })
		next := &Rows{nid: rd.add.nid, layout: rd.add.layout, cols: from.cols, ids: make([]int32, 0, len(from.ids)+len(add))}
		for _, id := range from.ids {
			oid := from.oid(id)
			for len(add) > 0 && rd.add.oid(add[0]) < oid {
				next.addFrom(rd.add, add[0])
				add = add[1:]
			}
			if !rd.del[oid] {
				next.addFrom(from, id)
			}
		}
		for _, id := range add {
			next.addFrom(rd.add, id)
		}
		out.InstallRows(pred, next.Arity(), next)
	}
	return out, true
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
