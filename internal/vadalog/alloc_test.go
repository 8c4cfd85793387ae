package vadalog

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/testutil"
	"repro/internal/value"
)

// TestMonoAggFillAllocation: filling a monotonic aggregate's state allocates
// about what the state holds at the end. Slices grown by append would copy
// and re-zero the state several times over; fixed-size pages never copy what
// they already hold.
func TestMonoAggFillAllocation(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const n = 100_000
	groupSlots, contribSlots := []int{0, 1}, []int{2}
	slots := make([]value.Value, 3)
	var before, filled, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := newMonoAgg("sum", groupSlots, contribSlots)
	for i := 0; i < n; i++ {
		slots[0], slots[1], slots[2] = value.IntV(int64(i)), value.IntV(int64(i%7)), value.IntV(int64(i))
		k, seen := m.probe(slots)
		if seen {
			t.Fatalf("contributor %d reported seen", i)
		}
		acc := m.accum(k.g)
		if err := acc.update("sum", slots[2], value.Value{}); err != nil {
			t.Fatal(err)
		}
		m.admit(k, &acc, slots)
	}
	runtime.ReadMemStats(&filled)
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated := filled.TotalAlloc - before.TotalAlloc
	held := after.HeapAlloc - before.HeapAlloc
	for i := 0; i < n; i++ {
		slots[0], slots[1], slots[2] = value.IntV(int64(i)), value.IntV(int64(i%7)), value.IntV(int64(i))
		if _, seen := m.probe(slots); !seen {
			t.Fatalf("contributor %d lost after the fill", i)
		}
	}
	ratio := float64(allocated) / float64(held)
	t.Logf("filling %d groups allocated %d B for %d B of final state (%.2fx)", n, allocated, held, ratio)
	if ratio > 2 {
		t.Errorf("the fill allocated %.2fx the final state, want <= 2x", ratio)
	}
}

// TestCondStepAllocsNothing: evaluating a condition over bound slots passes
// the slot environment by pointer, so a step allocates nothing.
func TestCondStepAllocsNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	prog, err := Parse(`q(X) :- p(X, Y), Y > 0.5, X != 3.`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(context.Background(), prog, NewDatabase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	cr := e.rules[0]
	cond := -1
	for si, st := range cr.steps {
		if st.kind == stepCond {
			cond = si
			break
		}
	}
	if cond < 0 {
		t.Fatal("no condition step compiled")
	}
	matches := 0
	c := newEvalCtx(e, cr, fullWindows{}, len(cr.steps), e.stepRelations(cr))
	c.onMatch = func() error { matches++; return nil }
	c.slots[cr.slots["X"]] = value.IntV(1)
	c.slots[cr.slots["Y"]] = value.FloatV(0.75)
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.step(cond); err != nil {
			t.Fatal(err)
		}
	})
	if matches == 0 {
		t.Fatal("the conditions never held")
	}
	if allocs != 0 {
		t.Errorf("a condition step allocates %.1f objects, want 0", allocs)
	}
}

// TestShardedRoundAllocation: a closure allocates per derived fact its share
// of the relation's pages and tables, and next to no objects: a new row of
// 16-byte cells is copied into the relation's pages, shards write into paged
// buffers the engine keeps across rounds, and the merge inserts through the
// dedup table's 8-byte slots without hashing again. W=1 is the sequential
// sink, which inserts from one scratch row. What the run leaves held is a
// row of two cells and its share of the dedup slots per fact.
func TestShardedRoundAllocation(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	for _, workers := range []int{2, 1} {
		db := layeredEdgeDB(11, 5, 1000, 3)
		var before, after, held runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(tcProgram, db, Options{Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&held)
		derived := float64(res.Stats.FactsDerived)
		objs := float64(after.Mallocs-before.Mallocs) / derived
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / derived
		kept := (float64(held.HeapAlloc) - float64(before.HeapAlloc)) / derived
		runtime.KeepAlive(res)
		t.Logf("W=%d: %d facts in %d rounds: %.3f objects and %.0f B per derived fact, %.0f B held", workers, res.Stats.FactsDerived, res.Stats.Rounds, objs, bytes, kept)
		if objs > 0.1 || bytes > 140 || kept > 64 {
			t.Errorf("W=%d: a closure allocates %.3f objects and %.0f B and holds %.0f B per derived fact, want <= 0.1, <= 140 and <= 64", workers, objs, bytes, kept)
		}
	}
}

// TestSmallRelationFootprint: a relation of a few facts allocates a few
// rows, not a page. A query's output relations are this small, and a full
// first page of width 3 would cost ~147 KB.
func TestSmallRelationFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	facts := make([]Fact, 8)
	for i := range facts {
		facts[i] = Fact{value.IntV(int64(i)), value.Str("x"), value.FloatV(float64(i))}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRelation(3)
	for _, f := range facts {
		if _, err := r.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<10 {
		t.Errorf("a relation of %d facts allocated %d B, want <= 8 KB", len(facts), got)
	} else {
		t.Logf("a relation of %d facts allocated %d B", len(facts), got)
	}
}
