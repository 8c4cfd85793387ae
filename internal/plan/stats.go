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
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

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

// Stats is the planner's statistics catalog: serializable, computed once
// per frozen generation (at Freeze()/snapshot-load time) and shared
// read-only by every plan against that generation.
type Stats struct {
	Nodes int                  `json:"nodes"`
	Edges int                  `json:"edges"`
	Preds map[string]PredStats `json:"preds"`
}

// statsSample caps the rows sampled per label for distinct counting.
// Cardinalities stay exact (every row of the pass is counted); distinct
// counts on larger labels — their edge endpoints included — are linearly
// extrapolated from the label's first statsSample rows, which keeps the
// hashing O(min(card, sample)) per label.
const statsSample = 50000

// ComputeStats builds the statistics catalog for a graph view under a
// column layout. A first scan of the nodes and of the edges counts each
// label's rows, so that every column's distinct set is sized once and never
// grows; a second scan fills the sets. Nothing is allocated per row: a cell
// is counted by its identity (cellKeyOf), an endpoint by its OID. The pass
// is deterministic: rows arrive in ascending OID order, so a label's sample
// is its first statsSample rows in any implementation of the view.
func ComputeStats(g pg.View, lay Layout) *Stats {
	nodes, edges := newLabelAccs("node", lay.NodeProps), newLabelAccs("edge", lay.EdgeProps)
	nodeIx, edgeIx := labelIndex{accs: nodes}, labelIndex{accs: edges}
	g.ScanNodes(func(n *pg.NodeRow) bool {
		for _, a := range nodeIx.of(n.Labels) {
			a.card++
		}
		return true
	})
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		for _, a := range edgeIx.of([]string{e.Label}) {
			a.card++
		}
		return true
	})
	for _, a := range nodes {
		a.presize()
	}
	for _, a := range edges {
		a.presize()
	}
	g.ScanNodes(func(n *pg.NodeRow) bool {
		for _, a := range nodeIx.of(n.Labels) {
			a.add(n.Props, 0, 0)
		}
		return true
	})
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		for _, a := range edgeIx.of([]string{e.Label}) {
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

// labelIndex resolves a row's labels to their accumulators and remembers
// the last label set, since rows come in runs of one label set.
type labelIndex struct {
	accs   map[string]*labelAcc
	labels []string
	hit    []*labelAcc
}

func (x *labelIndex) of(labels []string) []*labelAcc {
	if !slices.Equal(labels, x.labels) {
		x.labels = append(x.labels[:0], labels...)
		x.hit = x.hit[:0]
		for _, l := range labels {
			if a := x.accs[l]; a != nil {
				x.hit = append(x.hit, a)
			}
		}
	}
	return x.hit
}

// labelAcc accumulates one label's statistics during the scans.
type labelAcc struct {
	kind  string // "node" or "edge"
	props []string
	// card counts the label's rows (the first scan); sample is how many of
	// them the second scan feeds the sets, and sampled how many it has fed.
	card, sample, sampled int
	// Distinct cells per property column, and for an edge label distinct
	// endpoints, over the sampled rows.
	seen     []cellSet
	from, to oidSet
}

func newLabelAccs(kind string, layouts map[string][]string) map[string]*labelAcc {
	accs := make(map[string]*labelAcc, len(layouts))
	for label, props := range layouts {
		accs[label] = &labelAcc{kind: kind, props: props}
	}
	return accs
}

// presize allocates the label's sets for the rows the first scan counted.
func (a *labelAcc) presize() {
	a.sample = min(a.card, statsSample)
	a.seen = make([]cellSet, len(a.props))
	for i := range a.seen {
		a.seen[i] = newCellSet(a.sample)
	}
	if a.kind == "edge" {
		a.from, a.to = newOIDSet(a.sample), newOIDSet(a.sample)
	}
}

func (a *labelAcc) add(props pg.PropList, from, to pg.OID) {
	// The bound is the sets' capacity: a view that scanned more rows the
	// second time would otherwise overfill them.
	if a.sampled == a.sample {
		return
	}
	a.sampled++
	for i, p := range a.props {
		a.seen[i].add(cellKeyOf(props.Get(p)))
	}
	if a.kind == "edge" {
		a.from.add(from)
		a.to.add(to)
	}
}

// stats closes the accumulator: relational columns are (oid, props...) for
// a node label and (oid, from, to, props...) for an edge label.
func (a *labelAcc) stats() PredStats {
	ps := PredStats{Kind: a.kind, Card: a.card, Distinct: []int{a.card}} // the oid column is a key
	if a.kind == "edge" {
		ps.Distinct = append(ps.Distinct, scaleDistinct(a.from.n, a.sampled, a.card), scaleDistinct(a.to.n, a.sampled, a.card))
	}
	for _, seen := range a.seen {
		ps.Distinct = append(ps.Distinct, scaleDistinct(len(seen.keys), a.sampled, a.card))
	}
	return ps
}

// cellKey is the distinct-count identity of one property cell: two cells
// share a key exactly when their Canonical strings are equal. So the kind
// always separates (Int 1, Float 1, String "1", ID "1" and Null 1 are five
// keys); a Float keys on its bits, every NaN on one of them, while +0 and
// -0 stay apart; every Invalid is one key whatever it carries; and absent
// properties share one ⊥ key, matching the Missing null the extraction
// emits for them. s holds the payload of a String or ID and u its hash, so
// that two keys are told apart by u before their strings are compared; u
// holds any other payload.
type cellKey struct {
	kind value.Kind
	u    uint64
	s    string
}

// absentKind marks the ⊥ key; no value.Kind takes it.
const absentKind value.Kind = 0xff

func cellKeyOf(v value.Value, ok bool) cellKey {
	if !ok {
		return cellKey{kind: absentKind}
	}
	switch v.K {
	case value.String, value.ID:
		return cellKey{kind: v.K, u: maphash.String(stringSeed, v.S), s: v.S}
	case value.Int, value.Null:
		return cellKey{kind: v.K, u: uint64(v.I)}
	case value.Float:
		if math.IsNaN(v.F) {
			return cellKey{kind: value.Float, u: 0x7ff8000000000001}
		}
		return cellKey{kind: value.Float, u: math.Float64bits(v.F)}
	case value.Bool:
		if v.B {
			return cellKey{kind: value.Bool, u: 1}
		}
		return cellKey{kind: value.Bool}
	default:
		return cellKey{}
	}
}

// stringSeed seeds the hash of String and ID payloads; no count depends on
// it.
var stringSeed = maphash.MakeSeed()

// The sets below only count, and never grow: each is sized once for the
// keys it may receive, at a load of at most 2/3. A key's slot is the top
// of its hash's product with the Fibonacci constant (so sequential OIDs
// and integers spread over the table) scaled to the table's length, and a
// probe walks on from there.
const fibonacci = 0x9e3779b97f4a7c15

func slotOf(h uint64, n int) int {
	i, _ := bits.Mul64(h*fibonacci, uint64(n))
	return int(i)
}

func tableLen(keys int) int { return keys + keys/2 + 1 }

// cellSet counts distinct cells. A slot is 8 bytes, a 32-bit tag of the
// key's hash beside the key's position in keys, so the table stays small
// enough to probe from cache and a probe compares two keys only when their
// tags agree.
type cellSet struct {
	slots []uint64  // tag<<32 | position+1 in keys; 0 marks an empty slot
	keys  []cellKey // the distinct keys, in arrival order
}

func newCellSet(keys int) cellSet {
	return cellSet{slots: make([]uint64, tableLen(keys)), keys: make([]cellKey, 0, keys)}
}

func (s *cellSet) add(k cellKey) {
	h := k.u ^ uint64(k.kind)<<56
	tag := h << 32
	for i := slotOf(h, len(s.slots)); ; i++ {
		if i == len(s.slots) {
			i = 0
		}
		e := s.slots[i]
		if e == 0 {
			s.keys = append(s.keys, k)
			s.slots[i] = tag | uint64(len(s.keys))
			return
		}
		if e&^0xffffffff == tag && s.keys[uint32(e)-1] == k {
			return
		}
	}
}

// oidSet counts distinct edge endpoints, holding each OID in its slot. 0
// marks an empty slot: no view hands it out, since pg refuses non-positive
// OIDs.
type oidSet struct {
	slots []pg.OID
	n     int
}

func newOIDSet(keys int) oidSet { return oidSet{slots: make([]pg.OID, tableLen(keys))} }

func (s *oidSet) add(id pg.OID) {
	for i := slotOf(uint64(id), len(s.slots)); ; i++ {
		if i == len(s.slots) {
			i = 0
		}
		switch s.slots[i] {
		case id:
			return
		case 0:
			s.slots[i] = id
			s.n++
			return
		}
	}
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
