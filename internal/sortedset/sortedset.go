// Package sortedset maintains sorted, duplicate-free slices of ordered
// values. It is the shared home of the sorted-OID index discipline the
// property-graph store and the graph algorithms rely on for deterministic
// iteration: every index slice (nodes per label, incident edges per node,
// component members) is kept ascending so that results are reproducible
// across runs and worker counts.
//
// All functions are O(log n) search + O(n) shift, which is the right trade
// for the store's workload: indexes are read far more often than they are
// mutated, and reads want a plain slice they can range over with no
// indirection.
package sortedset

import (
	"cmp"
	"slices"
)

// Insert returns s with v inserted at its sorted position. It is a no-op if
// v is already present: the result is a set, not a multiset. The input
// slice may be reallocated, as with append.
func Insert[T cmp.Ordered](s []T, v T) []T {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// Remove returns s with v removed, preserving order. It is a no-op if v is
// absent.
func Remove[T cmp.Ordered](s []T, v T) []T {
	i, found := slices.BinarySearch(s, v)
	if !found {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// Contains reports whether v is present in the sorted slice s.
func Contains[T cmp.Ordered](s []T, v T) bool {
	_, found := slices.BinarySearch(s, v)
	return found
}

// Sort sorts s ascending in place, for slices built out of order and sorted
// once at the end.
func Sort[T cmp.Ordered](s []T) {
	slices.Sort(s)
}

// Keys returns the keys of m in ascending order: the deterministic way to
// iterate a map whose order is observable.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
