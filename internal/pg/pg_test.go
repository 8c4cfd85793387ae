package pg

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func build(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.AddNode([]string{"Person"}, Props{"name": value.Str("ann")})
	b := g.AddNode([]string{"Person", "Employee"}, Props{"name": value.Str("bob")})
	c := g.AddNode([]string{"Company"}, Props{"name": value.Str("acme"), "cap": value.FloatV(1e6)})
	g.MustAddEdge(a.ID, c.ID, "OWNS", Props{"pct": value.FloatV(0.6)})
	g.MustAddEdge(b.ID, c.ID, "OWNS", Props{"pct": value.FloatV(0.4)})
	g.MustAddEdge(b.ID, a.ID, "KNOWS", nil)
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := build(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size = %d/%d", g.NumNodes(), g.NumEdges())
	}
	if n := len(g.NodesByLabel("Person")); n != 2 {
		t.Errorf("persons = %d", n)
	}
	if n := len(g.EdgesByLabel("OWNS")); n != 2 {
		t.Errorf("OWNS = %d", n)
	}
	company := g.NodesByLabel("Company")[0]
	if len(g.In(company.ID)) != 2 || len(g.Out(company.ID)) != 0 {
		t.Errorf("company degrees = %d/%d", len(g.In(company.ID)), len(g.Out(company.ID)))
	}
	nodeLabels, edgeLabels := viewLabels(g)
	if len(nodeLabels) != 3 {
		t.Errorf("node labels = %v", nodeLabels)
	}
	if len(edgeLabels) != 2 {
		t.Errorf("edge labels = %v", edgeLabels)
	}
	emp := g.NodesByLabel("Employee")[0]
	if !emp.HasLabel("Person") || emp.HasLabel("Company") {
		t.Errorf("multi-label query wrong: %v", emp.Labels)
	}
}

func TestDanglingEdgeRejected(t *testing.T) {
	g := New()
	n := g.AddNode([]string{"A"}, nil)
	if _, err := g.AddEdge(n.ID, 999, "R", nil); err == nil {
		t.Error("dangling target must fail")
	}
	if _, err := g.AddEdge(999, n.ID, "R", nil); err == nil {
		t.Error("dangling source must fail")
	}
}

func TestAddLabel(t *testing.T) {
	g := New()
	n := g.AddNode([]string{"A"}, nil)
	if err := g.AddLabel(n.ID, "B"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLabel(n.ID, "B"); err != nil {
		t.Fatal("idempotent AddLabel must succeed")
	}
	if len(g.NodesByLabel("B")) != 1 {
		t.Error("label index not updated")
	}
	if err := g.AddLabel(999, "C"); err == nil {
		t.Error("AddLabel on missing node must fail")
	}
}

func TestRemove(t *testing.T) {
	g := build(t)
	company := g.NodesByLabel("Company")[0]
	if err := g.RemoveNode(company.ID); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if n := len(g.EdgesByLabel("OWNS")); n != 0 {
		t.Errorf("incident edges must be removed, OWNS = %d", n)
	}
	if n := len(g.EdgesByLabel("KNOWS")); n != 1 {
		t.Errorf("unrelated edges must survive, KNOWS = %d", n)
	}
	if err := g.RemoveNode(company.ID); err == nil {
		t.Error("double remove must fail")
	}
}

func TestClonePreservesEverything(t *testing.T) {
	g := build(t)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	c.AddNode([]string{"X"}, nil)
	if g.NumNodes() == c.NumNodes() {
		t.Error("clone shares node storage")
	}
	for _, n := range g.Nodes() {
		cn := c.Node(n.ID)
		if cn == nil || cn.Label() != n.Label() {
			t.Fatalf("node %d not preserved", n.ID)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := build(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatal("round trip size mismatch")
	}
	for _, n := range g.Nodes() {
		bn := back.Node(n.ID)
		for k, v := range n.Props {
			if !value.Equal(bn.Props[k], v) {
				t.Errorf("node %d prop %s: %v vs %v", n.ID, k, bn.Props[k], v)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := build(t)
	var nodes, edges bytes.Buffer
	if err := g.WriteNodeCSV(&nodes); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeCSV(&edges); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatal("CSV round trip size mismatch")
	}
	for _, e := range g.Edges() {
		be := back.Edge(e.ID)
		if be == nil || be.From != e.From || be.To != e.To || be.Label != e.Label {
			t.Errorf("edge %d not preserved", e.ID)
		}
		for k, v := range e.Props {
			if !value.Equal(be.Props[k], v) {
				t.Errorf("edge %d prop %s: %v vs %v", e.ID, k, be.Props[k], v)
			}
		}
	}
}

// TestCSVRoundTripKeepsKinds: every property comes back from the CSV round
// trip with its kind — an integral Float stays a Float, which TestCSVRoundTrip
// cannot tell because value.Equal is numeric.
func TestCSVRoundTripKeepsKinds(t *testing.T) {
	props := Props{"f": value.FloatV(2), "big": value.FloatV(1e21), "i": value.IntV(2), "s": value.Str("2"), "b": value.BoolV(true)}
	g := New()
	n := g.AddNode([]string{"A"}, props)
	e := g.MustAddEdge(n.ID, n.ID, "E", props)
	var nodes, edges bytes.Buffer
	if err := g.WriteNodeCSV(&nodes); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeCSV(&edges); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range props {
		if got := back.Node(n.ID).Props[k]; got.K != want.K || !value.Equal(got, want) {
			t.Errorf("node prop %s = %v (%s), want %v (%s)", k, got, got.K, want, want.K)
		}
		if got := back.Edge(e.ID).Props[k]; got.K != want.K || !value.Equal(got, want) {
			t.Errorf("edge prop %s = %v (%s), want %v (%s)", k, got, got.K, want, want.K)
		}
	}
}

// TestOIDAssignmentProperty: node and edge OIDs are unique and strictly
// increasing, whatever the interleaving of insertions.
func TestOIDAssignmentProperty(t *testing.T) {
	f := func(ops []bool) bool {
		g := New()
		first := g.AddNode(nil, nil).ID
		last := first
		seen := map[OID]bool{first: true}
		for _, isEdge := range ops {
			var id OID
			if isEdge {
				e, err := g.AddEdge(first, first, "L", nil)
				if err != nil {
					return false
				}
				id = e.ID
			} else {
				id = g.AddNode([]string{"N"}, nil).ID
			}
			if seen[id] || id <= last {
				return false
			}
			seen[id] = true
			last = id
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIndexConsistencyProperty: after random insertions, label indexes agree
// with a full scan.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(labels []uint8) bool {
		g := New()
		names := []string{"A", "B", "C"}
		want := map[string]int{}
		for _, l := range labels {
			name := names[int(l)%len(names)]
			g.AddNode([]string{name}, nil)
			want[name]++
		}
		for _, name := range names {
			if len(g.NodesByLabel(name)) != want[name] {
				return false
			}
		}
		return g.NumNodes() == len(labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAddWithIDConflicts(t *testing.T) {
	g := New()
	n, err := g.AddNodeWithID(10, []string{"A"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNodeWithID(10, []string{"B"}, nil); err == nil {
		t.Error("duplicate OID must fail")
	}
	// Next auto OID must not collide.
	m := g.AddNode([]string{"C"}, nil)
	if m.ID <= n.ID {
		t.Errorf("auto OID %d collides with explicit %d", m.ID, n.ID)
	}
	if _, err := g.AddEdgeWithID(10, n.ID, m.ID, "R", nil); err == nil {
		t.Error("edge OID colliding with node OID must fail")
	}
}
