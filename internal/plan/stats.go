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
	"repro/internal/graphstats"
	"repro/internal/pg"
	"repro/internal/sortedset"
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

// statsSample caps the rows scanned per label for distinct counting.
// Cardinalities stay exact (they come from the per-label postings); distinct
// counts on larger labels are linearly extrapolated from the first
// statsSample rows, which keeps the pass O(min(card, sample)) per label —
// cheap enough for snapshot-load time on paper-scale graphs.
const statsSample = 50000

// ComputeStats builds the statistics catalog for a graph view under a
// column layout. The pass is deterministic: labels come from the layout in
// sorted order, rows in the view's per-label scan order.
func ComputeStats(g pg.View, lay Layout) *Stats {
	nodeCard, edgeCard := graphstats.LabelCardinalities(g)
	st := &Stats{
		Nodes: g.NumNodes(),
		Edges: g.NumEdges(),
		Preds: make(map[string]PredStats, len(lay.NodeProps)+len(lay.EdgeProps)),
	}
	for _, label := range sortedset.Keys(lay.NodeProps) {
		props := lay.NodeProps[label]
		card := nodeCard[label]
		ps := PredStats{Kind: "node", Card: card, Distinct: make([]int, 1+len(props))}
		ps.Distinct[0] = card // oid column is a key
		nodes := g.NodesByLabel(label)
		sample := len(nodes)
		if sample > statsSample {
			sample = statsSample
		}
		for pi, prop := range props {
			seen := make(map[string]struct{}, min(sample, 1024))
			for _, n := range nodes[:sample] {
				seen[propKey(n.Props, prop)] = struct{}{}
			}
			ps.Distinct[1+pi] = scaleDistinct(len(seen), sample, card)
		}
		st.Preds[label] = ps
	}
	for _, label := range sortedset.Keys(lay.EdgeProps) {
		props := lay.EdgeProps[label]
		card := edgeCard[label]
		ps := PredStats{Kind: "edge", Card: card, Distinct: make([]int, 3+len(props))}
		ps.Distinct[0] = card // oid column is a key
		edges := g.EdgesByLabel(label)
		sample := len(edges)
		if sample > statsSample {
			sample = statsSample
		}
		from := make(map[pg.OID]struct{}, min(sample, 1024))
		to := make(map[pg.OID]struct{}, min(sample, 1024))
		for _, e := range edges[:sample] {
			from[e.From] = struct{}{}
			to[e.To] = struct{}{}
		}
		ps.Distinct[1] = scaleDistinct(len(from), sample, card)
		ps.Distinct[2] = scaleDistinct(len(to), sample, card)
		for pi, prop := range props {
			seen := make(map[string]struct{}, min(sample, 1024))
			for _, e := range edges[:sample] {
				seen[propKey(e.Props, prop)] = struct{}{}
			}
			ps.Distinct[3+pi] = scaleDistinct(len(seen), sample, card)
		}
		st.Preds[label] = ps
	}
	return st
}

// propKey is the distinct-count identity of one property cell; absent
// properties share one ⊥ bucket, matching the Missing null the extraction
// emits for them.
func propKey(props pg.Props, name string) string {
	v, ok := props[name]
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
