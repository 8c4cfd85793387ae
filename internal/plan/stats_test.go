package plan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pg"
	"repro/internal/value"
)

func statsGraph() (*pg.Graph, Layout) {
	g := pg.New()
	var companies []pg.OID
	for i := 0; i < 10; i++ {
		props := pg.Props{"name": value.Str([]string{"a", "b"}[i%2])}
		if i%2 == 0 {
			props["cap"] = value.IntV(int64(i))
		}
		companies = append(companies, g.AddNode([]string{"Company"}, props).ID)
	}
	g.AddNode([]string{"Person"}, pg.Props{"name": value.Str("p")})
	for i := 0; i < 9; i++ {
		g.MustAddEdge(companies[0], companies[i+1], "OWNS", pg.Props{"pct": value.FloatV(0.5)})
	}
	lay := Layout{
		NodeProps: map[string][]string{"Company": {"cap", "name"}, "Person": {"name"}},
		EdgeProps: map[string][]string{"OWNS": {"pct"}},
	}
	return g, lay
}

func TestComputeStats(t *testing.T) {
	g, lay := statsGraph()
	st := ComputeStats(g.Freeze(), lay)
	if st.Nodes != 11 || st.Edges != 9 {
		t.Fatalf("graph size = %d/%d, want 11/9", st.Nodes, st.Edges)
	}
	c, ok := st.Preds["Company"]
	if !ok || c.Kind != "node" || c.Card != 10 {
		t.Fatalf("Company stats = %+v", c)
	}
	// Columns: (oid, cap, name). The oid is a key; name has two distinct
	// values; cap has 5 ints plus the shared absent bucket.
	if len(c.Distinct) != 3 || c.Distinct[0] != 10 {
		t.Fatalf("Company distincts = %v", c.Distinct)
	}
	if got := c.distinctAt(2); got != 2 {
		t.Fatalf("distinct(name) = %d, want 2", got)
	}
	if got := c.distinctAt(1); got != 6 {
		t.Fatalf("distinct(cap) = %d, want 6 (5 values + absent bucket)", got)
	}
	o, ok := st.Preds["OWNS"]
	if !ok || o.Kind != "edge" || o.Card != 9 {
		t.Fatalf("OWNS stats = %+v", o)
	}
	// Columns: (oid, from, to, pct). One hub fans out to nine targets.
	if o.Distinct[1] != 1 || o.Distinct[2] != 9 {
		t.Fatalf("OWNS from/to distincts = %v", o.Distinct)
	}
	// distinctAt outside the layout (or the stats) falls back to the default
	// selectivity divisor, never zero.
	if got := o.distinctAt(9); got != defaultDistinct {
		t.Fatalf("distinctAt out of range = %d, want %d", got, defaultDistinct)
	}
	var missing PredStats
	if got := missing.distinctAt(0); got != defaultDistinct {
		t.Fatalf("zero-value distinctAt = %d, want %d", got, defaultDistinct)
	}
}

func TestScaleDistinct(t *testing.T) {
	// Exact when the sample covered everything; linearly extrapolated and
	// clamped to the cardinality otherwise.
	if got := scaleDistinct(5, 100, 100); got != 5 {
		t.Fatalf("full sample = %d, want 5", got)
	}
	if got := scaleDistinct(50, 100, 1000); got != 500 {
		t.Fatalf("extrapolated = %d, want 500", got)
	}
	if got := clampDistinct(5000, 1000); got != 1000 {
		t.Fatalf("clamp high = %d, want 1000", got)
	}
	if got := clampDistinct(0, 1000); got != 1 {
		t.Fatalf("clamp low = %d, want 1", got)
	}
}

// computeStatsCanonical is the reference ComputeStats is held to: the
// one-scan counter it replaced, which keyed every cell by its Canonical
// string (every absent cell by one ⊥ string) and every endpoint in a Go map.
func computeStatsCanonical(g pg.View, lay Layout) *Stats {
	type acc struct {
		kind     string
		card     int
		props    []string
		seen     []map[string]bool
		from, to map[pg.OID]bool
	}
	accs := func(kind string, layouts map[string][]string) map[string]*acc {
		m := map[string]*acc{}
		for label, props := range layouts {
			a := &acc{kind: kind, props: props, from: map[pg.OID]bool{}, to: map[pg.OID]bool{}}
			for range props {
				a.seen = append(a.seen, map[string]bool{})
			}
			m[label] = a
		}
		return m
	}
	add := func(a *acc, props pg.PropList, from, to pg.OID) {
		a.card++
		if a.card > statsSample {
			return
		}
		for i, p := range a.props {
			key := "\x00⊥"
			if v, ok := props.Get(p); ok {
				key = v.Canonical()
			}
			a.seen[i][key] = true
		}
		a.from[from], a.to[to] = true, true
	}
	nodes, edges := accs("node", lay.NodeProps), accs("edge", lay.EdgeProps)
	g.ScanNodes(func(n *pg.NodeRow) bool {
		for _, l := range n.Labels {
			if a := nodes[l]; a != nil {
				add(a, n.Props, 0, 0)
			}
		}
		return true
	})
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		if a := edges[e.Label]; a != nil {
			add(a, e.Props, e.From, e.To)
		}
		return true
	})
	st := &Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Preds: map[string]PredStats{}}
	for _, m := range []map[string]*acc{nodes, edges} { // edges last: a label naming both is the edge relation
		for label, a := range m {
			sample := min(a.card, statsSample)
			ps := PredStats{Kind: a.kind, Card: a.card, Distinct: []int{a.card}}
			if a.kind == "edge" {
				ps.Distinct = append(ps.Distinct, scaleDistinct(len(a.from), sample, a.card), scaleDistinct(len(a.to), sample, a.card))
			}
			for _, seen := range a.seen {
				ps.Distinct = append(ps.Distinct, scaleDistinct(len(seen), sample, a.card))
			}
			st.Preds[label] = ps
		}
	}
	return st
}

// ComputeStatsCanonical lends the oracle to the external tests, which run
// it over a streamed snapshot under its MetaLog catalog.
var ComputeStatsCanonical = computeStatsCanonical

// statsCells holds every distinction the distinct count must keep: the five
// kinds of "1", two NaN payloads (one bucket), +0 and -0 (two), and
// Invalids carrying different payloads (one bucket).
var statsCells = []value.Value{
	value.IntV(1), value.FloatV(1), value.Str("1"), value.IDV("1"), value.NullV(1),
	value.FloatV(math.NaN()), value.FloatV(math.Float64frombits(0x7ff0000000000042)),
	value.FloatV(0), value.FloatV(math.Copysign(0, -1)), value.FloatV(math.Inf(-1)),
	value.BoolV(true), value.BoolV(false), value.Str(""), value.IDV(""), value.NullV(0), value.IntV(0),
	{}, {K: value.Invalid, S: "x"}, {K: value.Invalid, I: 3},
}

// statsLayout has multi-label node rows, a label naming both a node and an
// edge relation (X), and a label no row carries (Empty).
var statsLayout = Layout{
	NodeProps: map[string][]string{"A": {"p", "q"}, "B": {"q", "r"}, "X": {"p"}, "Empty": {"p"}},
	EdgeProps: map[string][]string{"X": {"p", "r"}, "F": {"q"}},
}

// statsRandomGraph builds nodes and edges from next, which returns a number
// in [0, n): A is on five node rows in eight and X on five edge rows in
// eight, and a property is absent on one row in four.
func statsRandomGraph(next func(n int) int, nodes, edges int) *pg.Graph {
	nodeLabels := [][]string{{"A"}, {"A"}, {"A", "B"}, {"A", "X"}, {"A"}, {"B"}, nil, {"Other"}}
	edgeLabels := []string{"X", "X", "X", "X", "X", "F", "F", "Other"}
	props := func() pg.Props {
		p := pg.Props{}
		for _, k := range []string{"p", "q", "r"} {
			switch c := next(4 * len(statsCells)); {
			case c < len(statsCells):
				p[k] = statsCells[c]
			case c < 2*len(statsCells):
				p[k] = value.IntV(int64(next(64)))
			case c < 3*len(statsCells):
				p[k] = value.Str(string(rune('a' + next(26))))
			}
		}
		return p
	}
	g := pg.New()
	var ids []pg.OID
	for range nodes {
		ids = append(ids, g.AddNode(nodeLabels[next(len(nodeLabels))], props()).ID)
	}
	for range edges {
		if len(ids) == 0 {
			break
		}
		g.MustAddEdge(ids[next(len(ids))], ids[next(len(ids))], edgeLabels[next(len(edgeLabels))], props())
	}
	return g
}

func checkStatsAgainstCanonical(t *testing.T, g *pg.Graph, lay Layout) {
	t.Helper()
	want := computeStatsCanonical(g, lay)
	for name, v := range map[string]pg.View{"graph": g, "frozen": g.Freeze()} {
		if got := ComputeStats(v, lay); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ComputeStats diverges from the Canonical counter\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestComputeStatsMatchesCanonical holds the identity counter to the
// Canonical-string counter over seeded random graphs, and over one whose A
// and X labels pass statsSample rows, so that property columns and edge
// endpoints are sampled and extrapolated.
func TestComputeStatsMatchesCanonical(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		checkStatsAgainstCanonical(t, statsRandomGraph(r.Intn, r.Intn(300), r.Intn(300)), statsLayout)
	}
	r := rand.New(rand.NewSource(99))
	g := statsRandomGraph(r.Intn, statsSample*17/10, statsSample*17/10)
	st := ComputeStats(g.Freeze(), statsLayout)
	if st.Preds["A"].Card <= statsSample || st.Preds["X"].Card <= statsSample {
		t.Fatalf("A/X cards %d/%d do not pass the sample of %d", st.Preds["A"].Card, st.Preds["X"].Card, statsSample)
	}
	checkStatsAgainstCanonical(t, g, statsLayout)
}

// FuzzComputeStats holds ComputeStats to the Canonical-string counter on
// graphs whose labels, endpoints and cells of mixed kinds come from the
// fuzz input.
func FuzzComputeStats(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("compute-stats-fuzz-corpus"))
	f.Add([]byte{9, 9, 5, 6, 5, 6, 7, 8, 7, 8, 16, 17, 18, 16, 17, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		nodes, edges := next(32), next(32)
		checkStatsAgainstCanonical(t, statsRandomGraph(next, nodes, edges), statsLayout)
	})
}

// TestComputeStatsAllocs pins that the pass allocates per label and column,
// not per row: the same layout at 2k and at 20k rows allocates the same
// few dozen objects, under one per 200 rows at 20k.
func TestComputeStatsAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		r := rand.New(rand.NewSource(1))
		f := statsRandomGraph(r.Intn, rows, rows).Freeze()
		return testing.AllocsPerRun(3, func() { ComputeStats(f, statsLayout) })
	}
	small, large := allocs(2000), allocs(20000)
	if math.Abs(large-small) > 4 || large >= 20000/200 {
		t.Fatalf("ComputeStats allocates %v objects at 2k rows and %v at 20k; want them within 4 and under 100", small, large)
	}
}
