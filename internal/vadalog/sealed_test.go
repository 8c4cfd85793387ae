package vadalog

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/value"
)

// positions collects what VisitRange visits over the whole relation.
func positions(r *Relation, mask uint64, bound []value.Value) []int {
	var out []int
	r.VisitRange(mask, bound, 0, r.Len(), func(pos int) error { //nolint:errcheck // the visitor never fails
		out = append(out, pos)
		return nil
	})
	return out
}

// columnRows is a Rows source that stores its tuples by column, as the fact
// extractors' sources read frozen graph columns: no tuple exists until a
// cold reader assembles one.
type columnRows [][]value.Value

func (c columnRows) Len() int {
	if len(c) == 0 {
		return 0
	}
	return len(c[0])
}

func (c columnRows) Cell(pos, col int) value.Value { return c[col][pos] }

func toColumns(arity int, facts []Fact) columnRows {
	c := make(columnRows, arity)
	for _, f := range facts {
		for col, v := range f {
			c[col] = append(c[col], v)
		}
	}
	return c
}

// seal turns every relation of db sealed, over a column store of its facts
// in their order.
func seal(db *Database) {
	for _, pred := range db.Predicates() {
		r := db.Relation(pred)
		db.InstallRows(pred, r.Arity, toColumns(r.Arity, r.All()))
	}
}

// ownershipDB is a small serving-shaped database: Entity(oid, code) and
// OWNS(oid, from, to), each entity owning the next three.
func ownershipDB(n int) *Database {
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.MustAddFact("Entity", value.IntV(int64(i)), value.Str(fmt.Sprintf("c%d", i)))
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			db.MustAddFact("OWNS", value.IntV(int64(n+3*i+d)), value.IntV(int64(i)), value.IntV(int64((i+d)%n)))
		}
	}
	return db
}

// TestSealedConcurrentQueries runs 16 distinct point queries at once against
// one sealed database none of whose indexes exist yet. Every query needs the
// same three — Entity by code, OWNS by source, Entity by oid — so all of them
// race to force each. Rows must equal the single-goroutine answers and every
// (relation, mask) index must have been built exactly once.
func TestSealedConcurrentQueries(t *testing.T) {
	const queries = 16
	progs := make([]*Program, queries)
	want := make([]string, queries)
	mutable := ownershipDB(400)
	for i := range progs {
		progs[i] = MustParse(fmt.Sprintf(`q(C) :- Entity(X, "c%d"), OWNS(_, X, Y), Entity(Y, C).`, 7*i))
		res, err := Run(progs[i], mutable, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want[i] = fmt.Sprint(res.Output("q")); len(res.Output("q")) != 3 {
			t.Fatalf("query %d: %s", i, want[i])
		}
	}
	shared := mutable.Clone()
	seal(shared)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := Run(progs[i], shared, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if got := fmt.Sprint(res.Output("q")); got != want[i] {
				t.Errorf("query %d: got %s, want %s", i, got, want[i])
			}
		}()
	}
	close(start)
	wg.Wait()

	for pred, masks := range map[string][]uint64{"Entity": {1 << 0, 1 << 1}, "OWNS": {1 << 1}} {
		s := shared.Relation(pred).sealed
		built := *s.byMask.Load()
		if s.builds != len(masks) || len(built) != len(masks) {
			t.Errorf("%s: %d index builds for %d indexes, want %d each", pred, s.builds, len(built), len(masks))
		}
		for _, m := range masks {
			if built[m] == nil {
				t.Errorf("%s: no index for mask %b", pred, m)
			}
		}
	}
}

// TestSealedCloneIsolation: a clone of a sealed database shares every
// relation by pointer, and no write on the clone — AddFact, InstallRows, an
// engine run deriving into an input relation — reaches the original.
func TestSealedCloneIsolation(t *testing.T) {
	orig := ownershipDB(20)
	seal(orig)
	before := orig.Clone()
	rels := map[string]*Relation{}
	for _, pred := range orig.Predicates() {
		rels[pred] = orig.Relation(pred)
		if before.Relation(pred) != rels[pred] {
			t.Fatalf("%s: clone of a sealed database copied the relation", pred)
		}
	}
	check := func(step string) {
		t.Helper()
		for pred, r := range rels {
			if orig.Relation(pred) != r || r.sealed == nil {
				t.Fatalf("after %s: %s was replaced or unsealed in the original", step, pred)
			}
		}
		if err := sameInsertionOrder(orig, before); err != nil {
			t.Fatalf("after %s: original changed: %v", step, err)
		}
	}

	c := orig.Clone()
	if added, err := c.AddFact("Entity", value.IntV(999), value.Str("new")); err != nil || !added {
		t.Fatalf("AddFact on a clone: %v %v", added, err)
	}
	if added, _ := c.AddFact("Entity", value.IntV(0), value.Str("c0")); added {
		t.Error("AddFact on a clone re-added a fact of the sealed relation")
	}
	if c.Count("Entity") != 21 || c.Relation("Entity").sealed != nil {
		t.Errorf("clone Entity: %d facts, sealed=%v", c.Count("Entity"), c.Relation("Entity").sealed != nil)
	}
	check("AddFact")

	c = orig.Clone()
	c.InstallRows("OWNS", 3, toColumns(3, []Fact{{value.IntV(1), value.IntV(2), value.IntV(3)}}))
	check("InstallRows")

	prog := MustParse(`OWNS(0, X, Z) :- OWNS(_, X, Y), OWNS(_, Y, Z).`)
	for _, workers := range []int{1, 8} {
		c = orig.Clone()
		res, err := RunInPlace(prog, c, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.DB.Count("OWNS") <= orig.Count("OWNS") {
			t.Fatal("the run derived nothing into OWNS")
		}
		if res.DB.Relation("Entity") != rels["Entity"] {
			t.Error("the run copied a relation it only reads")
		}
		check(fmt.Sprintf("a run at workers=%d", workers))
	}
}

// TestSealedRelationRefusesWrites: a sealed relation answers reads like the
// mutable one it was sealed from and refuses Insert (of a new fact or one it
// holds) and Remove.
func TestSealedRelationRefusesWrites(t *testing.T) {
	db := ownershipDB(5)
	mutable := db.Clone()
	seal(db)
	r := db.Relation("OWNS")
	f := r.At(0)
	if _, err := r.Insert(Fact{value.IntV(1), value.IntV(2), value.IntV(3)}); !errors.Is(err, ErrSealed) {
		t.Errorf("Insert: %v, want ErrSealed", err)
	}
	if _, err := r.Insert(f); !errors.Is(err, ErrSealed) {
		t.Errorf("Insert of a held fact: %v, want ErrSealed", err)
	}
	func() {
		defer func() {
			if got := recover(); got != ErrSealed {
				t.Errorf("Remove: recovered %v, want ErrSealed", got)
			}
		}()
		r.Remove([]Fact{f})
	}()
	if r.Len() != 15 || !r.Contains(f) || r.Contains(Fact{value.IntV(1), value.IntV(2), value.IntV(3)}) || r.Contains(f[:2]) {
		t.Error("a refused write changed the relation, or Contains is wrong")
	}
	for mask := uint64(0); mask < 8; mask++ {
		for _, probe := range mutable.Facts("OWNS") {
			var bound []value.Value
			for i, v := range probe {
				if mask&(1<<uint(i)) != 0 {
					bound = append(bound, v)
				}
			}
			got, want := positions(r, mask, bound), positions(mutable.Relation("OWNS"), mask, bound)
			if fmt.Sprint(got) != fmt.Sprint(want) || len(got) == 0 {
				t.Fatalf("mask %b bound %v: sealed %v, mutable %v", mask, bound, got, want)
			}
		}
	}
	if got := positions(r, 1<<1, []value.Value{value.IntV(99)}); got != nil {
		t.Errorf("probe of an absent key = %v", got)
	}
}
