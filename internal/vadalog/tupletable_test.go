package vadalog

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// pairFact is the test tuple (a, -a, b): three columns, so the fingerprint
// search below walks tuples no other test builds.
func pairFact(a, b int64) Fact {
	return Fact{value.IntV(a), value.IntV(-a), value.IntV(b)}
}

// fingerprintTwins brute-forces n pairs of distinct tuples that share a
// 32-bit fingerprint (and so a home slot at every table size).
func fingerprintTwins(n int) [][2]Fact {
	seen := map[uint32]Fact{}
	var out [][2]Fact
	for a := int64(0); len(out) < n; a++ {
		f := pairFact(a, 7)
		fp := fingerprint(hashTuple(f))
		if g, ok := seen[fp]; ok {
			out = append(out, [2]Fact{g, f})
			continue
		}
		seen[fp] = f
	}
	return out
}

// lastSlotTuples brute-forces n tuples whose home is the last slot of a
// table of size slots, so a run of them wraps past the table's end.
func lastSlotTuples(n, slots int) []Fact {
	t := tupleTable{}
	t.resize(slots)
	var out []Fact
	for b := int64(0); len(out) < n; b++ {
		f := pairFact(-1, b)
		if t.home(fingerprint(hashTuple(f))) == slots-1 {
			out = append(out, f)
		}
	}
	return out
}

// checkRelation verifies a relation against its model after one step:
// Contains for every universe tuple, Len, the dedup table's count, and for
// every held fact the position its dedup slot and its full-mask index
// posting give.
func checkRelation(t *testing.T, r *Relation, universe []Fact, model map[string]bool, step int) {
	t.Helper()
	if r.Len() != len(model) || r.dedup.used != len(model) {
		t.Fatalf("step %d: Len %d, dedup entries %d, model %d", step, r.Len(), r.dedup.used, len(model))
	}
	for _, f := range universe {
		if got, want := r.Contains(f), model[f.String()]; got != want {
			t.Fatalf("step %d: Contains(%v) = %v, model says %v", step, f, got, want)
		}
	}
	full := uint64(1)<<uint(r.Arity) - 1
	for pos, f := range r.All() {
		if p, _ := r.dedup.find(&r.rows, hashTuple(f), f); p != pos {
			t.Fatalf("step %d: dedup finds %v at %d, it sits at %d", step, f, p, pos)
		}
		if got := positions(r, full, f); len(got) != 1 || got[0] != pos {
			t.Fatalf("step %d: full-mask index gives %v for %v at %d", step, got, f, pos)
		}
	}
}

// TestTupleTableCollisions: the 8-byte dedup slots keep only a fingerprint,
// so tuples that share one must still be told apart, and a probe run that
// wraps past the table's end must survive backward-shift deletion. Random
// insert, remove and swap-remove sequences over such tuples run against a
// map model.
func TestTupleTableCollisions(t *testing.T) {
	twins := fingerprintTwins(4)
	wrap := lastSlotTuples(6, minTupleSlots)

	t.Run("twins", func(t *testing.T) {
		for _, tw := range twins {
			r := NewRelation(3)
			for _, f := range tw {
				if ok, err := r.Insert(f); err != nil || !ok {
					t.Fatalf("Insert(%v) = %v, %v; want new", f, ok, err)
				}
			}
			for _, f := range tw {
				if ok, _ := r.Insert(f); ok {
					t.Fatalf("re-insert of %v reported new", f)
				}
			}
			if got := r.Remove([]Fact{tw[0]}); len(got) != 1 || r.Contains(tw[0]) || !r.Contains(tw[1]) {
				t.Fatalf("removing %v of a fingerprint pair left Contains %v/%v", tw[0], r.Contains(tw[0]), r.Contains(tw[1]))
			}
		}
	})

	t.Run("wrap", func(t *testing.T) {
		r := NewRelation(3)
		for _, f := range wrap {
			if _, err := r.Insert(f); err != nil {
				t.Fatal(err)
			}
		}
		if len(r.dedup.slots) != minTupleSlots || r.dedup.slots[0] == 0 {
			t.Fatalf("the run did not wrap: %d slots, slot 0 = %#x", len(r.dedup.slots), r.dedup.slots[0])
		}
		model := map[string]bool{}
		for _, f := range wrap {
			model[f.String()] = true
		}
		// Remove the run's head (the last slot) first, then from the middle.
		for i, f := range []Fact{wrap[0], wrap[3], wrap[5], wrap[1]} {
			r.Remove([]Fact{f})
			delete(model, f.String())
			checkRelation(t, r, wrap, model, i)
		}
	})

	t.Run("model", func(t *testing.T) {
		universe := append([]Fact(nil), wrap...)
		for _, tw := range twins {
			universe = append(universe, tw[0], tw[1])
		}
		universe = append(universe, lastSlotTuples(4, 2*minTupleSlots)...)
		universe = append(universe, lastSlotTuples(4, 4*minTupleSlots)...)
		for i := int64(0); i < 16; i++ {
			universe = append(universe, pairFact(i, i%3))
		}
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := NewRelation(3)
			r.ensureIndex(1<<0 | 1<<1 | 1<<2)
			model := map[string]bool{}
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(4); {
				case op < 2 || r.Len() == 0:
					f := universe[rng.Intn(len(universe))]
					ok, err := r.Insert(f)
					if err != nil {
						t.Fatal(err)
					}
					if ok == model[f.String()] {
						t.Fatalf("seed %d step %d: Insert(%v) new=%v, model holds it: %v", seed, step, f, ok, model[f.String()])
					}
					model[f.String()] = true
				case op == 2:
					// Remove the last fact: no swap.
					f := r.At(r.Len() - 1)
					r.Remove([]Fact{f})
					delete(model, f.String())
				default:
					// Remove any held fact or an absent one: the held ones
					// but the last swap the tail into their place.
					f := universe[rng.Intn(len(universe))]
					got := r.Remove([]Fact{f})
					if (len(got) == 1) != model[f.String()] {
						t.Fatalf("seed %d step %d: Remove(%v) removed %d, model holds it: %v", seed, step, f, len(got), model[f.String()])
					}
					delete(model, f.String())
				}
				checkRelation(t, r, universe, model, step)
			}
		}
	})
}

// TestPagedGrowResetClone: entries keep their values through the first
// page's doubling and the full pages after it, across resets to other widths
// (which keep what pages fit) and in a clone, which later pushes to the
// original do not reach.
func TestPagedGrowResetClone(t *testing.T) {
	var p paged[int]
	for _, width := range []int{3, 1, 3, 4, 0, 2} {
		p.reset(width)
		for _, n := range []int{0, 5, pageLen - 1, pageLen, pageLen + 1, 2*pageLen + 3} {
			p.reset(width)
			for i := 0; i < n; i++ {
				row := p.row(p.push())
				for c := range row {
					row[c] = i*10 + c
				}
			}
			if p.cap < p.n || int(p.n) != n {
				t.Fatalf("width %d: room for %d entries, %d held, want %d", width, p.cap, p.n, n)
			}
			q := p.clone()
			for i := 0; i < n; i++ {
				for c, v := range p.row(int32(i)) {
					if v != i*10+c {
						t.Fatalf("width %d, %d entries: entry %d column %d = %d", width, n, i, c, v)
					}
				}
				clear(p.row(int32(i)))
			}
			for i := 0; i < n; i++ {
				for c, v := range q.row(int32(i)) {
					if v != i*10+c {
						t.Fatalf("width %d, %d entries: clone entry %d column %d = %d", width, n, i, c, v)
					}
				}
			}
			if k := q.push(); len(q.row(k)) != width {
				t.Fatalf("width %d: a push into the clone of %d entries has %d columns", width, n, len(q.row(k)))
			}
		}
	}
}
