// Package pgtest holds the pg.View check shared by the test suites of the
// packages that implement a view or persist one.
package pgtest

import (
	"reflect"
	"testing"

	"repro/internal/pg"
)

// CheckScans fails t unless v's row scans present exactly what its pointer
// listings do: ScanNodes row for row against Nodes(), ScanEdges against
// Edges(), field for field — a nil label list or property list where, and
// only where, the struct's is nil — and each scan stops when told to.
func CheckScans(t testing.TB, v pg.View) {
	t.Helper()
	nodes, edges := v.Nodes(), v.Edges()
	visited := 0
	v.ScanNodes(func(r *pg.NodeRow) bool {
		if visited >= len(nodes) {
			t.Fatalf("ScanNodes visits more than the %d nodes of Nodes()", len(nodes))
		}
		n := nodes[visited]
		if r.ID != n.ID || !reflect.DeepEqual(r.Labels, n.Labels) || !sameProps(r.Props, n.Props) {
			t.Fatalf("ScanNodes row %d = {%d %#v %#v}, Nodes() has %+v", visited, r.ID, r.Labels, r.Props, n)
		}
		visited++
		return true
	})
	if visited != len(nodes) {
		t.Fatalf("ScanNodes visited %d rows, Nodes() lists %d", visited, len(nodes))
	}
	visited = 0
	v.ScanEdges(func(r *pg.EdgeRow) bool {
		if visited >= len(edges) {
			t.Fatalf("ScanEdges visits more than the %d edges of Edges()", len(edges))
		}
		e := edges[visited]
		if r.ID != e.ID || r.Label != e.Label || r.From != e.From || r.To != e.To || !sameProps(r.Props, e.Props) {
			t.Fatalf("ScanEdges row %d = {%d %q %d %d %#v}, Edges() has %+v", visited, r.ID, r.Label, r.From, r.To, r.Props, e)
		}
		visited++
		return true
	})
	if visited != len(edges) {
		t.Fatalf("ScanEdges visited %d rows, Edges() lists %d", visited, len(edges))
	}

	// An early stop at every row of a small view (a sample of a large one's):
	// inside the base, on its last row and inside the delta of an overlay.
	for stop := 1; stop <= len(nodes); stop += 1 + len(nodes)/64 {
		got := 0
		v.ScanNodes(func(*pg.NodeRow) bool { got++; return got < stop })
		if got != stop {
			t.Fatalf("ScanNodes told to stop at row %d visited %d", stop, got)
		}
	}
	for stop := 1; stop <= len(edges); stop += 1 + len(edges)/64 {
		got := 0
		v.ScanEdges(func(*pg.EdgeRow) bool { got++; return got < stop })
		if got != stop {
			t.Fatalf("ScanEdges told to stop at row %d visited %d", stop, got)
		}
	}
}

// sameProps compares a row's property list with a property map: nil
// together, every key once, values identical in kind and content (NaN-safe).
func sameProps(list pg.PropList, m pg.Props) bool {
	if (list == nil) != (m == nil) || len(list) != len(m) {
		return false
	}
	seen := map[string]bool{}
	for _, p := range list {
		want, ok := m[p.Key]
		if !ok || seen[p.Key] || p.Val.K != want.K || p.Val.Canonical() != want.Canonical() {
			return false
		}
		seen[p.Key] = true
		if got, ok := list.Get(p.Key); !ok || got.Canonical() != want.Canonical() {
			return false
		}
	}
	return true
}
