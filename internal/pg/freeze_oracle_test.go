package pg

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/symtab"
	"repro/internal/value"
)

// oracleColumns is an independent reference for the snapshot layout: the
// per-construct packer Graph.Freeze used before it streamed through the
// BulkLoader. It interns every name up front — sorted node labels, sorted
// edge labels, sorted property keys — then writes one row per construct,
// sorting each row's properties by symbol. It shares only buildCSR with the
// code under test.
func oracleColumns(g *Graph) Columns {
	syms := symtab.New()
	for _, l := range g.NodeLabels() {
		syms.Intern(l)
	}
	for _, l := range g.EdgeLabels() {
		syms.Intern(l)
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
		syms.Intern(k)
	}

	// appendProps appends one construct's properties sorted by key symbol,
	// which is not name order when a key doubles as a label.
	appendProps := func(p Props, keys *[]symtab.Sym, vals *[]value.Value) {
		type prop struct {
			key symtab.Sym
			val value.Value
		}
		row := make([]prop, 0, len(p))
		for k, v := range p {
			row = append(row, prop{syms.Intern(k), v})
		}
		sort.Slice(row, func(a, b int) bool { return row[a].key < row[b].key })
		for _, kv := range row {
			*keys = append(*keys, kv.key)
			*vals = append(*vals, kv.val)
		}
	}

	var c Columns
	nodes := g.Nodes()
	c.NodeOIDs = make([]OID, len(nodes))
	c.NodeLabelOff = make([]int32, len(nodes)+1)
	c.NodePropOff = make([]int32, len(nodes)+1)
	for i, n := range nodes {
		c.NodeOIDs[i] = n.ID
		for _, l := range n.Labels {
			c.NodeLabels = append(c.NodeLabels, syms.Intern(l))
		}
		c.NodeLabelOff[i+1] = int32(len(c.NodeLabels))
		appendProps(n.Props, &c.NodePropKeys, &c.NodePropVals)
		c.NodePropOff[i+1] = int32(len(c.NodePropKeys))
	}
	edges := g.Edges()
	c.EdgeOIDs = make([]OID, len(edges))
	c.EdgeLabels = make([]symtab.Sym, len(edges))
	c.EdgeFrom = make([]OID, len(edges))
	c.EdgeTo = make([]OID, len(edges))
	c.EdgePropOff = make([]int32, len(edges)+1)
	for i, e := range edges {
		c.EdgeOIDs[i] = e.ID
		c.EdgeLabels[i] = syms.Intern(e.Label)
		c.EdgeFrom[i], c.EdgeTo[i] = e.From, e.To
		appendProps(e.Props, &c.EdgePropKeys, &c.EdgePropVals)
		c.EdgePropOff[i+1] = int32(len(c.EdgePropKeys))
	}
	var err error
	c.OutOff, c.OutAdj, c.InOff, c.InAdj, err = buildCSR(c.NodeOIDs, c.EdgeOIDs, c.EdgeFrom, c.EdgeTo)
	if err != nil {
		panic(err) // a Graph holds no dangling edge
	}
	c.SymNames = syms.Names()
	return c
}

// sameColumns compares two column sets, reading a nil and an empty column
// as equal: an empty graph's columns may be either.
func sameColumns(a, b Columns) bool {
	norm := func(c Columns) Columns {
		v := reflect.ValueOf(&c).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Len() == 0 {
				f.Set(reflect.Zero(f.Type()))
			}
		}
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// oracleGraph builds a random graph out of the shapes the layout has to get
// right: multi-label and unlabeled nodes, an edge label "", a property key
// that is also a label (its symbol sorts before every other key's), nil and
// empty property maps, and shapes that change from one row to the next or
// hold for a run of rows.
func oracleGraph(r *rand.Rand) *Graph {
	nodeLabels := []string{"Company", "Person", "name"}
	edgeLabels := []string{"OWNS", "", "HOLDS"}
	keys := []string{"Company", "age", "name", "pct", "zeta"}
	randProps := func() Props {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return Props{}
		}
		p := Props{}
		for _, k := range keys {
			if r.Intn(2) == 0 {
				p[k] = value.IntV(int64(r.Intn(100)))
			}
		}
		return p
	}

	g := New()
	var oids []OID
	var labels []string
	var props Props
	for i, n := 0, 1+r.Intn(40); i < n; i++ {
		if i == 0 || r.Intn(3) > 0 { // otherwise repeat the previous row's shape
			labels = nil
			for _, l := range nodeLabels {
				if r.Intn(2) == 0 {
					labels = append(labels, l)
				}
			}
			props = randProps()
		}
		oids = append(oids, g.AddNode(labels, props).ID)
	}
	var label string
	for i, m := 0, r.Intn(60); i < m; i++ {
		if i == 0 || r.Intn(3) > 0 {
			label, props = edgeLabels[r.Intn(len(edgeLabels))], randProps()
		}
		g.MustAddEdge(oids[r.Intn(len(oids))], oids[r.Intn(len(oids))], label, props)
	}
	// Gaps in both OID columns.
	for i := 0; i < 3; i++ {
		if id := oids[r.Intn(len(oids))]; g.Node(id) != nil && g.NumNodes() > 1 {
			_ = g.RemoveNode(id) // present, so it cannot fail
		}
	}
	return g
}

// TestFreezeMatchesOracle is the layout's property test: Freeze and the
// reference packer produce the same columns over random graphs.
func TestFreezeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := oracleGraph(rand.New(rand.NewSource(seed)))
		if got, want := g.Freeze().Columns(), oracleColumns(g); !sameColumns(got, want) {
			t.Fatalf("seed %d: Freeze columns diverge from the oracle's\n got %+v\nwant %+v", seed, got, want)
		}
	}
	if !sameColumns(New().Freeze().Columns(), oracleColumns(New())) {
		t.Fatal("empty graph: Freeze columns diverge from the oracle's")
	}
}

// TestFreezeOracleCoversKeyLabelOrder pins that the generator reaches the
// case where symbol order and name order of a row's keys differ, so the
// property test above is not vacuous on it.
func TestFreezeOracleCoversKeyLabelOrder(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		c := oracleColumns(oracleGraph(rand.New(rand.NewSource(seed))))
		for i := range c.NodeOIDs {
			lo, hi := c.NodePropOff[i], c.NodePropOff[i+1]
			for p := lo + 1; p < hi; p++ {
				if c.SymNames[c.NodePropKeys[p-1]-1] > c.SymNames[c.NodePropKeys[p]-1] {
					return
				}
			}
		}
	}
	t.Fatal("no generated row stores its keys out of name order")
}

// FuzzFreeze builds a small graph from the fuzz bytes — node and edge
// additions over colliding label and key palettes, extra labels, removals —
// and checks Freeze against the reference packer and Thaw(Freeze(g))
// against g.
func FuzzFreeze(f *testing.F) {
	f.Add([]byte{0, 3, 5, 0, 1, 2, 1, 0, 1, 7, 2, 0, 4, 1})
	f.Add([]byte("freeze-fuzz-corpus"))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 3, 0})

	// Labels and keys collide with each other; "" is both.
	labels := []string{"Business", "Person", "name", ""}
	keys := []string{"Business", "age", "name", "", "zeta"}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128] // a small graph keeps each run, and minimizing, fast
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		subset := func(pal []string) []string {
			var out []string
			for i, m := 0, next(); i < len(pal); i++ {
				if m&(1<<i) != 0 {
					out = append(out, pal[i])
				}
			}
			return out
		}
		props := func() Props {
			ks := subset(keys)
			if ks == nil && next()%2 == 0 {
				return nil
			}
			p := Props{}
			for _, k := range ks {
				p[k] = value.IntV(int64(next()))
			}
			return p
		}

		g := New()
		var ids []OID
		pick := func() OID { return ids[int(next())%len(ids)] }
		for len(data) > 0 {
			switch op := next() % 5; {
			case op == 0 || len(ids) == 0:
				ids = append(ids, g.AddNode(subset(labels), props()).ID)
			case op == 1:
				if g.Node(ids[0]) == nil {
					continue
				}
				from, to := pick(), pick()
				if g.Node(from) != nil && g.Node(to) != nil {
					g.MustAddEdge(from, to, labels[int(next())%len(labels)], props())
				}
			case op == 2:
				if id := pick(); g.Node(id) != nil {
					_ = g.AddLabel(id, labels[int(next())%len(labels)])
				}
			case op == 3:
				if id := pick(); g.Node(id) != nil {
					_ = g.RemoveNode(id)
				}
			default:
				if id := pick(); g.Node(id) != nil {
					_ = g.SetNodeProp(id, keys[int(next())%len(keys)], value.Str("s"))
				}
			}
		}
		fr := g.Freeze()
		if !sameColumns(fr.Columns(), oracleColumns(g)) {
			t.Fatal("Freeze columns diverge from the reference packer's")
		}
		if want, got := graphJSON(t, g), graphJSON(t, fr.Thaw()); !bytes.Equal(want, got) {
			t.Fatalf("Thaw(Freeze(g)) differs from g:\nwant %s\ngot  %s", want, got)
		}
	})
}
