// Package plan is the cost-based query planner of the reproduction: a
// statistics catalog over frozen property-graph snapshots, a join-ordering
// pass over translated Vadalog rule bodies, and a magic-sets-style demand
// transformation for the left-linear closure predicates the MetaLog
// translation emits (DESIGN.md §15).
//
// The planner never touches the engine. Like the incremental Maintainer
// (internal/vadalog/delta.go), it is a pure program transformation: Compile
// takes a translated program and returns an equivalent one whose rule bodies
// are reordered by estimated cardinality and whose closure predicates are
// restricted to the demanded subset — the unmodified semi-naive engine then
// executes the plan. Programs outside the supported class keep their written
// order, reported as a fallback in the Plan, never as an error.
package plan

import (
	"repro/internal/pg"
	"repro/internal/value"
)

// Layout names the relational columns each label's facts are extracted
// into, mirroring the MetaLog catalog: node relations are (oid, props...),
// edge relations are (oid, from, to, props...), properties in the catalog's
// sorted order (see metalog.Catalog and its PlanLayout adapter).
type Layout struct {
	NodeProps map[string][]string `json:"nodeProps"`
	EdgeProps map[string][]string `json:"edgeProps"`
}

// PredStats summarizes one extracted relation for costing.
type PredStats struct {
	// Kind is "node" or "edge".
	Kind string `json:"kind"`
	// Card is the relation's cardinality (facts = nodes or edges).
	Card int `json:"card"`
	// Distinct estimates the number of distinct values per relational
	// column: node relations (oid, props...), edge relations (oid, from,
	// to, props...). Distinct[1] and Distinct[2] of an edge relation give
	// the average out- and in-degree of the label as Card/Distinct.
	Distinct []int `json:"distinct"`
}

// Stats is the planner's statistics catalog: cheap, serializable, computed
// once per frozen generation (at Freeze()/snapshot-load time) and shared
// read-only by every plan against that generation.
type Stats struct {
	Nodes int                  `json:"nodes"`
	Edges int                  `json:"edges"`
	Preds map[string]PredStats `json:"preds"`
}

// statsSample caps the rows sampled per label for distinct counting.
// Cardinalities stay exact (every row of the pass is counted); distinct
// counts on larger labels are linearly extrapolated from the label's first
// statsSample rows, which keeps the hashing O(min(card, sample)) per label —
// cheap enough for snapshot-load time on paper-scale graphs.
const statsSample = 50000

// ComputeStats builds the statistics catalog for a graph view under a
// column layout, in one row scan of the nodes and one of the edges. The pass
// is deterministic: rows arrive in ascending OID order, so a label's sample
// is its first statsSample rows in any implementation of the view.
func ComputeStats(g pg.View, lay Layout) *Stats {
	nodes, edges := newLabelAccs("node", lay.NodeProps), newLabelAccs("edge", lay.EdgeProps)
	g.ScanNodes(func(n *pg.NodeRow) bool {
		for _, l := range n.Labels {
			if a := nodes[l]; a != nil {
				a.add(n.Props, 0, 0)
			}
		}
		return true
	})
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		if a := edges[e.Label]; a != nil {
			a.add(e.Props, e.From, e.To)
		}
		return true
	})
	st := &Stats{
		Nodes: g.NumNodes(),
		Edges: g.NumEdges(),
		Preds: make(map[string]PredStats, len(nodes)+len(edges)),
	}
	for label, a := range nodes {
		st.Preds[label] = a.stats()
	}
	for label, a := range edges { // a label naming both is costed as the edge relation
		st.Preds[label] = a.stats()
	}
	return st
}

// labelAcc accumulates one label's statistics during the scan.
type labelAcc struct {
	kind  string // "node" or "edge"
	card  int
	props []string
	// Distinct cells per property column, and for an edge label distinct
	// endpoints (nil for a node label), over the first statsSample rows.
	seen     []map[string]struct{}
	from, to map[pg.OID]struct{}
}

func newLabelAccs(kind string, layouts map[string][]string) map[string]*labelAcc {
	accs := make(map[string]*labelAcc, len(layouts))
	for label, props := range layouts {
		a := &labelAcc{kind: kind, props: props, seen: make([]map[string]struct{}, len(props))}
		for i := range a.seen {
			a.seen[i] = map[string]struct{}{}
		}
		if kind == "edge" {
			a.from, a.to = map[pg.OID]struct{}{}, map[pg.OID]struct{}{}
		}
		accs[label] = a
	}
	return accs
}

func (a *labelAcc) add(props pg.PropList, from, to pg.OID) {
	a.card++
	if a.card > statsSample {
		return
	}
	for i, p := range a.props {
		a.seen[i][propKey(props.Get(p))] = struct{}{}
	}
	if a.from != nil {
		a.from[from] = struct{}{}
		a.to[to] = struct{}{}
	}
}

// stats closes the accumulator: relational columns are (oid, props...) for
// a node label and (oid, from, to, props...) for an edge label.
func (a *labelAcc) stats() PredStats {
	sample := min(a.card, statsSample)
	ps := PredStats{Kind: a.kind, Card: a.card, Distinct: []int{a.card}} // the oid column is a key
	if a.from != nil {
		ps.Distinct = append(ps.Distinct, scaleDistinct(len(a.from), sample, a.card), scaleDistinct(len(a.to), sample, a.card))
	}
	for _, seen := range a.seen {
		ps.Distinct = append(ps.Distinct, scaleDistinct(len(seen), sample, a.card))
	}
	return ps
}

// propKey is the distinct-count identity of one property cell; absent
// properties share one ⊥ bucket, matching the Missing null the extraction
// emits for them.
func propKey(v value.Value, ok bool) string {
	if !ok {
		return "\x00⊥"
	}
	return v.Canonical()
}

// scaleDistinct extrapolates a sampled distinct count to the full relation:
// proportionally when the sample saturated on unique-ish values, clamped to
// [1, card] (a nonempty column has at least one value).
func scaleDistinct(distinct, sample, card int) int {
	if card == 0 {
		return 0
	}
	if sample >= card || sample == 0 {
		return clampDistinct(distinct, card)
	}
	scaled := int(float64(distinct) * float64(card) / float64(sample))
	return clampDistinct(scaled, card)
}

func clampDistinct(d, card int) int {
	if d < 1 {
		return 1
	}
	if d > card {
		return card
	}
	return d
}

// distinctAt returns the distinct estimate for a column, defaulting
// defensively when the column is outside the recorded layout (a pattern can
// extend the catalog past the layout the stats were computed with).
func (ps PredStats) distinctAt(col int) int {
	if col >= 0 && col < len(ps.Distinct) {
		return maxInt(ps.Distinct[col], 1)
	}
	return defaultDistinct
}

const defaultDistinct = 10

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
