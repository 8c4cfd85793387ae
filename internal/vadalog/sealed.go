package vadalog

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// sealedRel is the state of a sealed relation: the row source it reads its
// tuples from, and one flat index per probed mask, built on first use, at
// most once, and kept for as long as any database holds the relation.
// Readers take the published map with one atomic load; a miss builds under
// the mutex and publishes a copy with the new entry, so concurrent queries
// forcing the same index wait for one build instead of racing to repeat it.
type sealedRel struct {
	rows   Rows
	mu     sync.Mutex
	byMask atomic.Pointer[map[uint64]*flatIndex]
	builds int // index builds so far, under mu; what the once-only test reads
}

func (s *sealedRel) index(arity int, mask uint64) *flatIndex {
	if m := s.byMask.Load(); m != nil {
		if ix := (*m)[mask]; ix != nil {
			return ix
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.byMask.Load()
	if old != nil {
		if ix := (*old)[mask]; ix != nil {
			return ix
		}
	}
	next := map[uint64]*flatIndex{mask: buildFlatIndex(s.rows, mask&(1<<uint(arity)-1))}
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	s.builds++
	s.byMask.Store(&next)
	return next[mask]
}

// flatIndex is a hash index over an immutable row source in two flat arrays:
// the fact positions grouped by hash bucket, ascending within each bucket (so
// the engine's window restriction binary-searches a bucket exactly as it does
// a mutable posting list), and the bucket boundaries. With fewer facts than
// buckets it costs 8 to 12 bytes per fact, against ~70 for a map of posting
// slices. A bucket mixes every projection hashing into it; the probe verifies
// candidates by value, as it must for full-hash collisions anyway.
type flatIndex struct {
	shift  uint    // bucket = mixed hash >> shift
	starts []int32 // bucket b is pos[starts[b]:starts[b+1]]
	pos    []int32
}

// hashMix spreads a projection hash before its top bits pick the bucket:
// FNV-1a leaves the low bits of the last value folded in (consecutive OIDs)
// mostly in the low half of the word.
const hashMix = 0x9e3779b97f4a7c15

// buildFlatIndex indexes the rows on the columns of mask, which names no
// column past the arity.
func buildFlatIndex(rows Rows, mask uint64) *flatIndex {
	n := rows.Len()
	b := uint(bits.Len(uint(n))) // 2^b > n: under one fact per bucket on average
	ix := &flatIndex{shift: 64 - b, starts: make([]int32, 1<<b+1), pos: make([]int32, n)}
	buckets := make([]uint32, n)
	for i := range buckets {
		h := uint64(fnvOffset64)
		for m := mask; m != 0; m &= m - 1 { // ascending columns, as projectHash folds them
			h = hashValue(h, rows.Cell(i, bits.TrailingZeros64(m)))
		}
		bk := uint32(h * hashMix >> ix.shift)
		buckets[i] = bk
		ix.starts[bk+1]++
	}
	for i := 1; i < len(ix.starts); i++ {
		ix.starts[i] += ix.starts[i-1]
	}
	// Counting sort, stable: positions land in their bucket in ascending
	// order. starts[b] serves as bucket b's write cursor and ends up one
	// bucket ahead; the shift back restores it.
	for i, bk := range buckets {
		ix.pos[ix.starts[bk]] = int32(i)
		ix.starts[bk]++
	}
	copy(ix.starts[1:], ix.starts)
	ix.starts[0] = 0
	return ix
}

// bucket returns the ascending positions of the facts whose projection may
// hash to h.
func (ix *flatIndex) bucket(h uint64) []int32 {
	b := h * hashMix >> ix.shift
	return ix.pos[ix.starts[b]:ix.starts[b+1]]
}
