// Package pgtest holds the pg.View checks and readings shared by the test
// suites of the packages that implement a view or persist one.
package pgtest

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/pg"
)

// PointView is a view together with the point lookups every implementation
// keeps as its own methods.
type PointView interface {
	pg.View
	Node(id pg.OID) *pg.Node
	Edge(id pg.OID) *pg.Edge
}

// NodeLabels lists the distinct labels of the view's nodes, sorted, as its
// node scan presents them.
func NodeLabels(v pg.View) []string {
	seen := map[string]bool{}
	v.ScanNodes(func(r *pg.NodeRow) bool {
		for _, l := range r.Labels {
			seen[l] = true
		}
		return true
	})
	return sortedKeys(seen)
}

// EdgeLabels lists the distinct labels of the view's edges, sorted.
func EdgeLabels(v pg.View) []string {
	seen := map[string]bool{}
	v.ScanEdges(func(r *pg.EdgeRow) bool {
		seen[r.Label] = true
		return true
	})
	return sortedKeys(seen)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CheckScans fails t unless v's row scans present exactly the view's
// constructs: NumNodes/NumEdges rows in strictly ascending OID order, each
// equal field for field to the view's own point lookup of its OID — a nil
// label list or property list where, and only where, the struct's is nil —
// and each scan stops when told to.
func CheckScans(t testing.TB, v PointView) {
	t.Helper()
	visited, last := 0, pg.OID(0)
	v.ScanNodes(func(r *pg.NodeRow) bool {
		if visited > 0 && r.ID <= last {
			t.Fatalf("ScanNodes row %d has OID %d after %d", visited, r.ID, last)
		}
		n := v.Node(r.ID)
		if n == nil || !reflect.DeepEqual(r.Labels, n.Labels) || !sameProps(r.Props, n.Props) {
			t.Fatalf("ScanNodes row %d = {%d %#v %#v}, Node(%d) = %+v", visited, r.ID, r.Labels, r.Props, r.ID, n)
		}
		visited, last = visited+1, r.ID
		return true
	})
	if visited != v.NumNodes() {
		t.Fatalf("ScanNodes visited %d rows, NumNodes() = %d", visited, v.NumNodes())
	}
	visited, last = 0, 0
	v.ScanEdges(func(r *pg.EdgeRow) bool {
		if visited > 0 && r.ID <= last {
			t.Fatalf("ScanEdges row %d has OID %d after %d", visited, r.ID, last)
		}
		e := v.Edge(r.ID)
		if e == nil || r.Label != e.Label || r.From != e.From || r.To != e.To || !sameProps(r.Props, e.Props) {
			t.Fatalf("ScanEdges row %d = {%d %q %d %d %#v}, Edge(%d) = %+v", visited, r.ID, r.Label, r.From, r.To, r.Props, r.ID, e)
		}
		visited, last = visited+1, r.ID
		return true
	})
	if visited != v.NumEdges() {
		t.Fatalf("ScanEdges visited %d rows, NumEdges() = %d", visited, v.NumEdges())
	}

	// An early stop at every row of a small view (a sample of a large one's):
	// inside the base, on its last row and inside the delta of an overlay.
	for stop := 1; stop <= v.NumNodes(); stop += 1 + v.NumNodes()/64 {
		got := 0
		v.ScanNodes(func(*pg.NodeRow) bool { got++; return got < stop })
		if got != stop {
			t.Fatalf("ScanNodes told to stop at row %d visited %d", stop, got)
		}
	}
	for stop := 1; stop <= v.NumEdges(); stop += 1 + v.NumEdges()/64 {
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
