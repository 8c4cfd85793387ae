package vadalog_test

// Relation storage microbenchmarks: the dedup-on-insert and index-probe
// paths that every semi-naive round exercises once per candidate tuple, on
// the live Relation (one probe of the 8-byte-slot dedup table, fingerprint
// matches verified under value identity; map-backed join indexes).
// Unrecorded and ungated — run them with `go test
// -bench Storage ./internal/vadalog/` when working on the relation; where
// they show end to end is vadalog.fixpoint_s and metalog.extract_s in the
// bench/ spine.

import (
	"testing"

	"repro/internal/vadalog"
	"repro/internal/value"
)

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
}

// BenchmarkStorageRelationProbe measures warm-index probes with one bound
// position, the inner loop of every join step.
func BenchmarkStorageRelationProbe(b *testing.B) {
	const mask = 1 << 1 // bind position 1, the integer key
	probes := make([][]value.Value, 256)
	for i := range probes {
		probes[i] = []value.Value{value.IntV(int64(i * 16))}
	}
	r := vadalog.NewRelation(3)
	for _, f := range benchFacts(4096) {
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
}
