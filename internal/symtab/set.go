package symtab

import "sort"

// Set is an unordered staging dictionary: the per-shard half of parallel
// symbol interning. Bulk ingest workers each collect the distinct names
// their shard of batches mentions into a private Set — no locking, no
// symbol assignment — and the shards are then merged and sorted into one
// Table whose final symbol order is a pure function of the name population,
// independent of how the work was sharded (the same discipline as the
// worker-pool shard merge of the parallel reasoner).
//
// A Set is not safe for concurrent use; use one per worker.
type Set struct {
	m map[string]struct{}
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{m: make(map[string]struct{})}
}

// Add inserts a name; duplicates are no-ops.
func (s *Set) Add(name string) {
	s.m[name] = struct{}{}
}

// Len returns the number of distinct names.
func (s *Set) Len() int { return len(s.m) }

// MergeSorted unions any number of shard sets into one ascending name list.
// The result depends only on the union of the inputs — the deterministic
// merge step that makes sharded interning order-independent.
func MergeSorted(sets ...*Set) []string {
	total := 0
	for _, s := range sets {
		total += s.Len()
	}
	u := make(map[string]struct{}, total)
	for _, s := range sets {
		for n := range s.m {
			u[n] = struct{}{}
		}
	}
	out := make([]string, 0, len(u))
	for n := range u {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
