package vadalog_test

// Relation storage microbenchmarks (EXPERIMENTS.md E19): the dedup-on-insert
// and index-probe paths that every semi-naive round exercises once per
// candidate tuple. Each path runs against two implementations on identical
// data: "stringkey" is a test-only replica of the pre-refactor storage
// (concatenated canonical strings as dedup and index keys) serving as the
// recorded baseline, and "hashed" is the live Relation (direct tuple hashes
// with collision verification under canonical equality). make bench-storage
// captures both into BENCH_storage.json, so the speedup and allocation
// deltas are reproducible from this PR alone.

import (
	"sort"
	"testing"

	"repro/internal/vadalog"
	"repro/internal/value"
)

// legacyRelation replicates the pre-refactor Relation storage: dedup by the
// full tuple's canonical string, join indexes keyed by the projected
// canonical string. Kept test-only as the benchmark baseline.
type legacyRelation struct {
	arity   int
	facts   []vadalog.Fact
	dedup   map[string]int
	indexes map[uint64]map[string][]int
}

func newLegacyRelation(arity int) *legacyRelation {
	return &legacyRelation{
		arity:   arity,
		dedup:   make(map[string]int),
		indexes: make(map[uint64]map[string][]int),
	}
}

func legacyEncodeKey(vals []value.Value) string {
	var buf [96]byte
	b := buf[:0]
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0)
		}
		b = v.AppendCanonical(b)
	}
	return string(b)
}

func (r *legacyRelation) projectKey(f vadalog.Fact, mask uint64) string {
	var buf [96]byte
	b := buf[:0]
	first := true
	for i := 0; i < r.arity; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !first {
			b = append(b, 0)
		}
		first = false
		b = f[i].AppendCanonical(b)
	}
	return string(b)
}

func (r *legacyRelation) insert(f vadalog.Fact) bool {
	key := legacyEncodeKey(f)
	if _, ok := r.dedup[key]; ok {
		return false
	}
	pos := len(r.facts)
	r.dedup[key] = pos
	r.facts = append(r.facts, f)
	for mask, idx := range r.indexes {
		pk := r.projectKey(f, mask)
		idx[pk] = append(idx[pk], pos)
	}
	return true
}

func (r *legacyRelation) ensureIndex(mask uint64) map[string][]int {
	if idx, ok := r.indexes[mask]; ok {
		return idx
	}
	idx := make(map[string][]int)
	for pos, f := range r.facts {
		pk := r.projectKey(f, mask)
		idx[pk] = append(idx[pk], pos)
	}
	r.indexes[mask] = idx
	return idx
}

func (r *legacyRelation) lookup(mask uint64, boundVals []value.Value) []int {
	idx := r.ensureIndex(mask)
	return idx[legacyEncodeKey(boundVals)]
}

func benchFacts(n int) []vadalog.Fact {
	out := make([]vadalog.Fact, n)
	for i := 0; i < n; i++ {
		out[i] = vadalog.Fact{
			value.IDV("company" + string(rune('a'+i%26)) + "x"),
			value.IntV(int64(i)),
			value.FloatV(float64(i) * 0.5),
		}
	}
	return out
}

// BenchmarkStorageRelationInsert measures n fresh inserts followed by n
// dedup-hit re-inserts — the shape of the fixpoint's saturated rounds.
func BenchmarkStorageRelationInsert(b *testing.B) {
	facts := benchFacts(4096)
	b.Run("stringkey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := newLegacyRelation(3)
			for _, f := range facts {
				r.insert(f)
			}
			for _, f := range facts {
				if r.insert(f) {
					b.Fatal("dedup miss")
				}
			}
		}
	})
	b.Run("hashed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := vadalog.NewRelation(3)
			for _, f := range facts {
				if _, err := r.Insert(f); err != nil {
					b.Fatal(err)
				}
			}
			for _, f := range facts {
				if ok, _ := r.Insert(f); ok {
					b.Fatal("dedup miss")
				}
			}
		}
	})
}

// BenchmarkStorageRelationProbe measures warm-index probes with one bound
// position, the inner loop of every join step.
func BenchmarkStorageRelationProbe(b *testing.B) {
	facts := benchFacts(4096)
	const mask = 1 << 1 // bind position 1, the integer key
	probes := make([][]value.Value, 256)
	for i := range probes {
		probes[i] = []value.Value{value.IntV(int64(i * 16))}
	}

	b.Run("stringkey", func(b *testing.B) {
		r := newLegacyRelation(3)
		for _, f := range facts {
			r.insert(f)
		}
		r.lookup(mask, probes[0]) // build the index outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			for _, p := range probes {
				hits += len(r.lookup(mask, p))
			}
		}
		if hits == 0 {
			b.Fatal("no probe hits")
		}
	})
	b.Run("hashed", func(b *testing.B) {
		r := vadalog.NewRelation(3)
		for _, f := range facts {
			if _, err := r.Insert(f); err != nil {
				b.Fatal(err)
			}
		}
		hits := 0
		count := func(int) error { hits++; return nil }
		r.VisitRange(mask, probes[0], 0, r.Len(), count) // build the index outside the timer
		hits = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range probes {
				r.VisitRange(mask, p, 0, r.Len(), count)
			}
		}
		if hits == 0 {
			b.Fatal("no probe hits")
		}
	})
}

// TestLegacyRelationAgrees pins the baseline replica to the live Relation:
// same dedup decisions, same probe results on randomized-ish data. A drifted
// baseline would make the benchmark comparison meaningless.
func TestLegacyRelationAgrees(t *testing.T) {
	facts := benchFacts(512)
	// Duplicate a slice of them to exercise the dedup path.
	facts = append(facts, facts[100:200]...)
	legacy := newLegacyRelation(3)
	live := vadalog.NewRelation(3)
	for _, f := range facts {
		a := legacy.insert(f)
		b, err := live.Insert(f)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("dedup disagreement on %v: legacy %v, live %v", f, a, b)
		}
	}
	for mask := uint64(1); mask < 8; mask++ {
		for i := 0; i < 64; i++ {
			var bound []value.Value
			f := facts[(i*37)%len(facts)]
			for p := 0; p < 3; p++ {
				if mask&(1<<uint(p)) != 0 {
					bound = append(bound, f[p])
				}
			}
			a := append([]int(nil), legacy.lookup(mask, bound)...)
			var b []int
			live.VisitRange(mask, bound, 0, live.Len(), func(pos int) error { b = append(b, pos); return nil })
			sort.Ints(a)
			sort.Ints(b)
			if len(a) != len(b) {
				t.Fatalf("mask %b bound %v: legacy %v live %v", mask, bound, a, b)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("mask %b bound %v: legacy %v live %v", mask, bound, a, b)
				}
			}
		}
	}
}
