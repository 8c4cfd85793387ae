package pg

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// serialize captures the observable state of a graph for byte-identity
// comparisons.
func serialize(t *testing.T, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func seedGraph() *Graph {
	g := New()
	a := g.AddNode([]string{"A"}, Props{"name": value.Str("a"), "n": value.IntV(1)})
	b := g.AddNode([]string{"B"}, Props{"name": value.Str("b")})
	g.MustAddEdge(a.ID, b.ID, "REL", Props{"w": value.FloatV(0.5)})
	return g
}

func TestSnapshotRollbackRestoresEverything(t *testing.T) {
	g := seedGraph()
	before := serialize(t, g)
	nextBefore := g.next

	snap := g.Begin()
	n := g.AddNode([]string{"C", "A"}, Props{"k": value.IntV(9)})
	g.MustAddEdge(n.ID, 1, "REL", nil)
	if err := g.AddLabel(1, "Extra"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(1, "name", value.Str("mutated")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(1, "fresh", value.BoolV(true)); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(3); err != nil { // the seed edge
		t.Fatal(err)
	}
	if err := g.RemoveNode(2); err != nil { // seed node b
		t.Fatal(err)
	}
	if serialize(t, g) == before {
		t.Fatal("mutations did not change the serialization (test is vacuous)")
	}
	snap.Rollback()

	if got := serialize(t, g); got != before {
		t.Fatalf("rollback is not byte-identical:\nbefore: %s\nafter:  %s", before, got)
	}
	if g.next != nextBefore {
		t.Fatalf("OID allocator not restored: %d != %d", g.next, nextBefore)
	}
	// The allocator replays the same OIDs, so a retried operation is
	// bit-identical to a first-try run.
	if n2 := g.AddNode(nil, nil); n2.ID != n.ID {
		t.Fatalf("post-rollback OID = %d, want %d", n2.ID, n.ID)
	}
}

func TestSnapshotCommitKeepsMutations(t *testing.T) {
	g := seedGraph()
	snap := g.Begin()
	n := g.AddNode([]string{"C"}, nil)
	snap.Commit()
	if g.Node(n.ID) == nil {
		t.Fatal("committed node vanished")
	}
	if g.snapDepth != 0 || g.journal != nil {
		t.Fatalf("journal not released after commit: depth=%d len=%d", g.snapDepth, len(g.journal))
	}
	// Mutations outside any savepoint are not journaled.
	g.AddNode(nil, nil)
	if len(g.journal) != 0 {
		t.Fatal("journaling active outside a savepoint")
	}
}

func TestSnapshotNestedSavepoints(t *testing.T) {
	g := seedGraph()
	base := serialize(t, g)

	// Inner rollback, outer commit: only the inner mutations vanish.
	outer := g.Begin()
	kept := g.AddNode([]string{"Kept"}, nil)
	inner := g.Begin()
	g.AddNode([]string{"Dropped"}, nil)
	inner.Rollback()
	outer.Commit()
	if g.Node(kept.ID) == nil || len(g.NodesByLabel("Dropped")) != 0 {
		t.Fatal("inner rollback under outer commit kept the wrong set")
	}

	// Inner commit, outer rollback: everything since the outer Begin goes.
	g2 := seedGraph()
	outer2 := g2.Begin()
	g2.AddNode([]string{"X"}, nil)
	inner2 := g2.Begin()
	g2.AddNode([]string{"Y"}, nil)
	inner2.Commit()
	outer2.Rollback()
	if got := serialize(t, g2); got != base {
		t.Fatalf("outer rollback did not undo inner-committed mutations")
	}
}

func TestSnapshotMisuse(t *testing.T) {
	g := seedGraph()
	snap := g.Begin()
	snap.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("double finish must panic (savepoint misuse is a programming error)")
		}
	}()
	snap.Commit()
}

// TestSnapshotRandomizedRollback drives a random mutation sequence under a
// savepoint and checks the rollback restores the serialization, for many
// seeds — the property the chaos suite's atomicity invariant reduces to.
func TestSnapshotRandomizedRollback(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var nodes []OID
		for i := 0; i < 5+rng.Intn(5); i++ {
			nodes = append(nodes, g.AddNode([]string{"N"}, Props{"i": value.IntV(int64(i))}).ID)
		}
		for i := 0; i < 8; i++ {
			g.MustAddEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], "E", nil)
		}
		before := serialize(t, g)
		snap := g.Begin()
		for i := 0; i < 40; i++ {
			switch rng.Intn(6) {
			case 0:
				nodes = append(nodes, g.AddNode([]string{"M"}, nil).ID)
			case 1:
				// Endpoints may have been removed by case 5; the
				// error-returning AddEdge rejects those attempts.
				_, _ = g.AddEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], "E2", nil)
			case 2:
				_ = g.SetNodeProp(nodes[rng.Intn(len(nodes))], "p", value.IntV(int64(i)))
			case 3:
				_ = g.AddLabel(nodes[rng.Intn(len(nodes))], "L")
			case 4:
				if es := g.Edges(); len(es) > 0 {
					_ = g.RemoveEdge(es[rng.Intn(len(es))].ID)
				}
			case 5:
				if len(nodes) > 2 {
					i := rng.Intn(len(nodes))
					if g.Node(nodes[i]) != nil {
						_ = g.RemoveNode(nodes[i])
					}
				}
			}
		}
		snap.Rollback()
		if got := serialize(t, g); got != before {
			t.Fatalf("seed %d: rollback not byte-identical", seed)
		}
	}
}
