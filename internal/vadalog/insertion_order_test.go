package vadalog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
	"repro/internal/value"
)

// insertionDigest is an order-sensitive digest of a whole database: for every
// predicate in name order, every fact position in insertion order with the
// fact's canonical cells. Two databases digest alike exactly when they hold
// the same facts at the same positions.
func insertionDigest(db *Database) string {
	h := sha256.New()
	var buf []byte
	for _, pred := range db.Predicates() {
		r := db.Relation(pred)
		for pos := 0; pos < r.Len(); pos++ {
			buf = append(buf[:0], pred...)
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(pos))
			buf = appendKey(buf, r.At(pos))
			buf = append(buf, '\n')
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reachOwnsDB is the reach closure's input: a layered ownership DAG whose
// owns edges carry a share, wide enough that the closure's rounds shard at
// the default minShardSize.
func reachOwnsDB() *Database {
	edges := layeredEdgeDB(13, 5, 500, 3)
	db := NewDatabase()
	for i, f := range edges.Facts("edge") {
		db.MustAddFact("owns", f[0], f[1], value.FloatV(float64(i%97)/97))
	}
	return db
}

// TestInsertionOrderGolden pins the insertion order of every relation, not
// only the fact sets, after two closures at W=1, 2 and 8: the reach closure,
// and the two-head/Skolem layered closure of
// TestShardedMergeAtProductionShardSizes. Both shard at W=2 and 8 (a rule
// reports a merge), and their insertion order happens to be W=1's as well:
// every window is fixed before the evaluation that reads it. The digests
// were recorded before a relation's tuples moved into pages; a storage
// change that reorders a relation, at any worker count, fails here.
func TestInsertionOrderGolden(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		db   func() *Database
		want map[int]string // by worker count
	}{
		{
			name: "reach",
			prog: MustParse(`
				reach(X,Y) :- owns(X,Y,P).
				reach(X,Z) :- reach(X,Y), owns(Y,Z,P).
			`),
			db: reachOwnsDB,
			want: map[int]string{
				1: "63da22bd673a7293cfde025fd292559002c1af976a2501a3c1d90841f0083b71",
				2: "63da22bd673a7293cfde025fd292559002c1af976a2501a3c1d90841f0083b71",
				8: "63da22bd673a7293cfde025fd292559002c1af976a2501a3c1d90841f0083b71",
			},
		},
		{
			name: "two-head-skolem",
			prog: MustParse(`
				tc(X,Y) :- edge(X,Y).
				tc(X,Z) :- tc(X,Y), edge(Y,Z).
				sym(X,Y), sym(Y,X) :- edge(X,Y).
				holds(X,S), share(S,Y) :- edge(X,Y).
			`),
			db: func() *Database { return layeredEdgeDB(5, 5, 300, 3) },
			want: map[int]string{
				1: "aac55ff5952e0a73c80e603a635e84d84fe89c4585ff380b5736c2630aa40dd7",
				2: "aac55ff5952e0a73c80e603a635e84d84fe89c4585ff380b5736c2630aa40dd7",
				8: "aac55ff5952e0a73c80e603a635e84d84fe89c4585ff380b5736c2630aa40dd7",
			},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			tr := obs.NewTrace()
			res, err := Run(tc.prog, tc.db(), Options{Workers: workers, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			merged := false
			for _, rule := range tr.Runs()[0].Rules {
				merged = merged || rule.MergeNanos > 0
			}
			if merged != (workers > 1) {
				t.Fatalf("%s at W=%d: a rule merged shards: %v", tc.name, workers, merged)
			}
			if got := insertionDigest(res.DB); got != tc.want[workers] {
				t.Errorf("%s at W=%d: insertion digest %s, want %s (%d facts)", tc.name, workers, got, tc.want[workers], res.DB.TotalFacts())
			}
		}
	}
}
