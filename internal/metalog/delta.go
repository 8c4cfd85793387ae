package metalog

import (
	"sort"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/vadalog"
)

// ApplyFactsDelta maintains an ExtractFacts database under a graph-level
// mutation batch, given the batch's net effect as an overlay.Diff. It is the
// incremental counterpart of re-running ExtractFacts over the mutated view:
// only the relations named by the diff are touched, and each touched relation
// is rebuilt in ascending-OID order — the exact order ExtractFacts produces,
// because Nodes() and Edges() iterate ascending — so the maintained database
// is indistinguishable (fact-for-fact, position-for-position) from a full
// re-extraction. Position identity matters: engine derivation order, and
// therefore query row order, follows relation insertion order.
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
// The input database is not modified; on ok=true the returned database is a
// fresh clone with the delta folded in (or db itself when the diff is empty).
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
		if !edgeCovered(cat, e) {
			return nil, false
		}
	}

	// Collect the per-relation effect: OIDs whose facts retract, and the
	// replacement facts to insert. Within one relation an OID identifies at
	// most one fact (a node contributes one fact per label, an edge one fact
	// to its label's relation), so retraction by OID is exact.
	type relDelta struct {
		del map[int64]bool
		add []vadalog.Fact
	}
	changes := map[string]*relDelta{}
	touch := func(pred string) *relDelta {
		rd := changes[pred]
		if rd == nil {
			rd = &relDelta{del: map[int64]bool{}}
			changes[pred] = rd
		}
		return rd
	}
	delNode := func(n *pg.Node) {
		for _, l := range n.Labels {
			if cat.HasNode(l) {
				touch(l).del[int64(n.ID)] = true
			}
		}
	}
	addNode := func(n *pg.Node) {
		for _, l := range n.Labels {
			touch(l).add = append(touch(l).add, cat.NodeFact(l, n.ID, n.Props))
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
			touch(e.Label).del[int64(e.ID)] = true
		}
	}
	for _, e := range diff.AddedEdges {
		touch(e.Label).add = append(touch(e.Label).add, cat.EdgeFact(e.Label, e.ID, e.From, e.To, e.Props))
	}

	out := db.Clone()
	preds := make([]string, 0, len(changes))
	for p := range changes {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, pred := range preds {
		rd := changes[pred]
		var arity int
		switch {
		case cat.HasNode(pred):
			arity = cat.NodeArity(pred)
		case cat.HasEdge(pred):
			arity = cat.EdgeArity(pred)
		default:
			return nil, false // unreachable given the coverage checks above
		}
		var facts []vadalog.Fact
		if r := out.Relation(pred); r != nil {
			for _, f := range r.All() {
				if oid, ok := f[0].AsInt(); ok && rd.del[oid] {
					continue
				}
				facts = append(facts, f)
			}
		}
		facts = append(facts, rd.add...)
		sort.Slice(facts, func(i, j int) bool {
			a, _ := facts[i][0].AsInt()
			b, _ := facts[j][0].AsInt()
			return a < b
		})
		if err := out.ReplaceFacts(pred, arity, facts); err != nil {
			return nil, false
		}
	}
	return out, true
}

// nodeCovered reports whether every fact the node would extract to fits the
// catalog's current column layout.
func nodeCovered(cat *Catalog, n *pg.Node) bool {
	for _, l := range n.Labels {
		if !covered(cat.NodeProps, l, n.Props) {
			return false
		}
	}
	return true
}

func edgeCovered(cat *Catalog, e *pg.Edge) bool { return covered(cat.EdgeProps, e.Label, e.Props) }

func covered(layouts map[string][]string, label string, props pg.Props) bool {
	layout, ok := layouts[label]
	if !ok {
		return false
	}
	for k := range props {
		if !sortedset.Contains(layout, k) {
			return false
		}
	}
	return true
}
