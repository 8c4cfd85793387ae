package vadalog

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/value"
)

// Fact is a tuple of values, a member of a relation (Section 4, "Relational
// Foundations"). Facts are immutable once inserted.
type Fact []value.Value

func (f Fact) String() string {
	parts := make([]string, len(f))
	for i, v := range f {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// encodeKey renders a tuple as one canonical string. The relation's dedup
// and join indexes and the monotonic aggregates' state do not use it (they
// key on tuple hashes, below); it remains the group key of the stratified
// aggregates, whose sorted order is their emission order, and the key of the
// provenance store, where a printable key is worth the allocation.
func encodeKey(vals []value.Value) string {
	var buf [96]byte
	return string(appendKey(buf[:0], vals))
}

// appendKey appends the encodeKey form of vals to b.
func appendKey(b []byte, vals []value.Value) []byte {
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0)
		}
		b = v.AppendCanonical(b)
	}
	return b
}

// canonicalNaNBits is the single bit pattern every NaN hashes under: all NaN
// payloads print "NaN", so canonical equality merges them.
const canonicalNaNBits = 0x7ff8000000000000

// FNV-1a parameters for hashing tuples.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashValue folds one value into an FNV-1a state. The hash discriminates
// exactly what canonical-string equality discriminates: the Kind tag keeps
// Int 1, Float 1 and String "1" apart (as their canonical prefixes do),
// every NaN collapses to one pattern while +0 and -0 stay distinct (they
// print "0" and "-0"), and string payloads are folded byte-wise.
func hashValue(h uint64, v value.Value) uint64 {
	h ^= uint64(v.K)
	h *= fnvPrime64
	switch v.K {
	case value.Int, value.Null:
		h ^= uint64(v.I)
		h *= fnvPrime64
	case value.Float:
		b := math.Float64bits(v.F)
		if v.F != v.F {
			b = canonicalNaNBits
		}
		h ^= b
		h *= fnvPrime64
	case value.Bool:
		if v.B {
			h ^= 1
		}
		h *= fnvPrime64
	default: // String, ID, Invalid carry their payload in S.
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= fnvPrime64
		}
	}
	return h
}

// hashTuple hashes a full tuple.
func hashTuple(vals []value.Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = hashValue(h, v)
	}
	return h
}

// tupleEqual reports the identity of two same-arity tuples.
func tupleEqual(a, b []value.Value) bool {
	for i := range a {
		if !value.Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Relation is a set of facts of a fixed arity with hash indexes. It has two
// forms. A mutable relation (NewRelation) owns its facts, is append-only with
// swap-removal, and keeps a dedup table and map indexes current on every
// write. A sealed relation (Database.InstallRows) reads its tuples from a
// Rows source it does not own: it has no dedup table, its indexes are flat
// arrays over positions built lazily and at most once (sealed.go), and any
// number of databases and goroutines share it by pointer. Writers never see
// one: the database hands them a private mutable copy instead
// (Database.mutable).
//
// Facts keep their insertion order, which lets the semi-naive engine address
// "old" and "delta" windows of the same relation by position ranges instead
// of copying snapshots.
//
// Deduplication and the join indexes key on tuple hashes over the values'
// identity (value.Identical) instead of concatenated canonical strings: an
// insert and an index probe allocate no key material, and hash collisions are
// resolved by comparing values — never by re-encoding.
type Relation struct {
	Arity int
	facts []Fact // the mutable form's tuples; nil when sealed

	// dedup leads from a tuple hash to the position of the equal fact.
	dedup tupleTable

	// indexes maps a bitmask of bound positions to an index from the
	// projected-tuple hash to ascending fact positions. Once built for a
	// mask, an index is maintained incrementally by Insert. Probes verify
	// the candidate facts value-by-value, so a hash collision costs a
	// filtered copy, never a wrong answer.
	indexes map[uint64]map[uint64][]int

	// recycle marks a pooled scratch relation: Reset keeps the fact-slot
	// backing array and InsertValues may overwrite slots beyond len(facts).
	// It must stay false on any relation whose facts outlive its contents —
	// live relations hand removed Fact headers to callers, and recycling
	// would overwrite them in place.
	recycle bool

	// sealed is non-nil exactly when the relation is sealed; facts, dedup
	// and indexes are then empty, and sealed holds the row source and the
	// lazily built indexes.
	sealed *sealedRel
}

// tupleTable is a mutable relation's dedup table: open addressing with
// linear probing at a load of at most 1/2, in 8-byte slots that hold a
// tuple's 32-bit fingerprint over its position+1 (0 marks a free slot). A
// slot's home is a function of its fingerprint alone, so tuples with equal
// fingerprints sit in successive slots of one probe run, tupleEqual tells
// them apart, and growing re-places slots without touching a fact. One
// probe (find) returns either the equal fact or the free slot its insert
// writes; removal shifts the rest of the run back instead of leaving
// tombstones (DESIGN.md §10).
type tupleTable struct {
	slots []uint64
	used  int
	shift uint8 // 32 - log2(len(slots))
}

const minTupleSlots = 16

// fingerprint folds a 64-bit tuple hash into the 32 bits a slot keeps.
func fingerprint(h uint64) uint32 { return uint32(h>>32) ^ uint32(h) }

// home is the first slot of fingerprint fp's probe run; Fibonacci hashing
// spreads the fingerprint's bits over the table.
func (t *tupleTable) home(fp uint32) int { return int((fp * 0x9e3779b9) >> t.shift) }

// find returns the position of the fact in facts equal to vals (whose
// hashTuple is h) and its slot, or position -1 and the free slot an insert
// of vals writes (-1 while the table holds no slots). It reads only, so it
// is safe alongside other reads.
func (t *tupleTable) find(facts []Fact, h uint64, vals []value.Value) (pos, slot int) {
	if len(t.slots) == 0 {
		return -1, -1
	}
	fp, mask := fingerprint(h), len(t.slots)-1
	for i := t.home(fp); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if uint32(s>>32) == fp {
			if p := int(uint32(s)) - 1; tupleEqual(facts[p], vals) {
				return p, i
			}
		}
	}
}

// insert records position pos for hash h at slot, which find(h) returned
// with no write to t since; slot -1 (or any slot of a table that has none)
// probes for a free one.
func (t *tupleTable) insert(h uint64, slot, pos int) {
	fp := fingerprint(h)
	if len(t.slots) == 0 {
		t.resize(minTupleSlots)
		slot = -1
	}
	if slot < 0 {
		slot = t.free(fp)
	}
	t.slots[slot] = uint64(fp)<<32 | uint64(pos+1)
	t.used++
	if 2*t.used > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
}

// free returns the first free slot of fp's probe run.
func (t *tupleTable) free(fp uint32) int {
	mask := len(t.slots) - 1
	i := t.home(fp)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// reserve sizes an empty table for n entries; for none it stays unallocated.
func (t *tupleTable) reserve(n int) {
	if n == 0 {
		return
	}
	size := minTupleSlots
	for size < 2*n {
		size *= 2
	}
	t.resize(size)
}

// resize moves the slots into a table of n slots, n a power of two.
func (t *tupleTable) resize(n int) {
	old := t.slots
	t.slots, t.shift = make([]uint64, n), uint8(32-bits.Len(uint(n-1)))
	for _, s := range old {
		if s != 0 {
			t.slots[t.free(uint32(s>>32))] = s
		}
	}
}

// slotOf returns the slot recording position pos for hash h.
func (t *tupleTable) slotOf(h uint64, pos int) int {
	fp, mask := fingerprint(h), len(t.slots)-1
	want := uint64(fp)<<32 | uint64(pos+1)
	i := t.home(fp)
	for t.slots[i] != want {
		i = (i + 1) & mask
	}
	return i
}

// remove drops the slot recording position pos for hash h by backward-shift
// deletion: each later slot of the run whose home lies at or before the hole
// moves into it, so every remaining entry stays reachable from its home.
func (t *tupleTable) remove(h uint64, pos int) {
	mask := len(t.slots) - 1
	i := t.slotOf(h, pos)
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if k := t.home(uint32(t.slots[j] >> 32)); (j-k)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = 0
	t.used--
}

// repoint rewrites the slot recording position from for hash h to record
// position to, in place.
func (t *tupleTable) repoint(h uint64, from, to int) {
	i := t.slotOf(h, from)
	t.slots[i] = t.slots[i]>>32<<32 | uint64(to+1)
}

// reset empties the table, keeping its slots.
func (t *tupleTable) reset() {
	clear(t.slots)
	t.used = 0
}

// Rows is what a sealed relation reads its tuples from: a fixed sequence of
// Len tuples, addressed one cell at a time. Cell(pos, col) is column col of
// the tuple at position pos; the cold readers (At, All, Sorted, and the
// mutable copy a writer gets) assemble whole tuples from it. A Rows source
// must not change once installed, must answer concurrent readers, and must
// hold pairwise distinct tuples: nothing probes it for duplicates.
type Rows interface {
	Len() int
	Cell(pos, col int) value.Value
}

// ErrSealed is returned by Insert and InsertValues on a sealed relation, and
// is the panic value of Remove and Reset on one. Reaching it is a bug in the
// caller: relations obtained from a database that may be sealed are read-only,
// and writes go through the Database (AddFact, EnsureRelation, InstallRows)
// or an engine run, which replace a sealed relation by a mutable copy first.
var ErrSealed = errors.New("vadalog: write to a sealed relation")

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, indexes: make(map[uint64]map[uint64][]int)}
}

// Len returns the number of facts.
func (r *Relation) Len() int {
	if r.sealed != nil {
		return r.sealed.rows.Len()
	}
	return len(r.facts)
}

// Rows returns the row source of a sealed relation, nil for a mutable one.
func (r *Relation) Rows() Rows {
	if r.sealed == nil {
		return nil
	}
	return r.sealed.rows
}

// Reset empties the relation while keeping its allocated capacity: the fact
// slots, dedup slots and per-mask index maps are all retained. The
// maintenance path resets its pooled shadow relations between batches, so a
// steady-state Apply stops paying slice and map regrowth for them.
func (r *Relation) Reset() {
	if r.sealed != nil {
		panic(ErrSealed)
	}
	r.facts = r.facts[:0]
	r.dedup.reset()
	for _, idx := range r.indexes {
		clear(idx)
	}
}

// At returns the fact at the given position: the stored fact of a mutable
// relation, a tuple assembled for this call from a sealed one's row source.
func (r *Relation) At(pos int) Fact {
	if r.sealed == nil {
		return r.facts[pos]
	}
	f := make(Fact, r.Arity)
	for col := range f {
		f[col] = r.sealed.rows.Cell(pos, col)
	}
	return f
}

// repeatsMatch reports whether the positions of fact f repeating a variable
// first bound in the same atom (p(X, X)) hold a value identical to it.
func repeatsMatch(f Fact, st *cStep, slots []value.Value) bool {
	for _, i := range st.checkPos {
		if !value.Identical(f[i], slots[st.argSlot[i]]) {
			return false
		}
	}
	return true
}

// bindCells is the join's read of candidate pos of a sealed relation: it
// binds the step's first occurrences of its variables from the row's cells
// into slots and reports whether the repeated positions match, as
// repeatsMatch does for a stored fact.
func (r *Relation) bindCells(pos int, st *cStep, slots []value.Value) bool {
	rows := r.sealed.rows
	for _, i := range st.binderPos {
		slots[st.argSlot[i]] = rows.Cell(pos, i)
	}
	for _, i := range st.checkPos {
		if !value.Identical(rows.Cell(pos, i), slots[st.argSlot[i]]) {
			return false
		}
	}
	return true
}

// Contains reports whether the tuple is already in the relation. It is safe
// alongside concurrent reads: a mutable relation answers from its dedup table
// without mutating anything, a sealed one probes its all-columns index (built
// on first use, race-free).
func (r *Relation) Contains(f Fact) bool {
	if len(f) != r.Arity {
		return false
	}
	if r.sealed != nil {
		return r.exists(1<<uint(r.Arity)-1, f)
	}
	pos, _ := r.dedup.find(r.facts, hashTuple(f), f)
	return pos >= 0
}

// Insert adds a fact, reporting whether it was new. It is an error to insert
// a fact of the wrong arity.
func (r *Relation) Insert(f Fact) (bool, error) {
	if len(f) != r.Arity {
		return false, fmt.Errorf("vadalog: arity mismatch: relation has arity %d, fact has %d", r.Arity, len(f))
	}
	if r.sealed != nil {
		return false, ErrSealed
	}
	h := hashTuple(f)
	pos, slot := r.dedup.find(r.facts, h, f)
	if pos >= 0 {
		return false, nil
	}
	r.appendNew(h, slot, f)
	return true, nil
}

// InsertValues is Insert for a caller-owned scratch tuple: the values are
// copied into a fresh Fact only when no equal fact is present. Dup-heavy
// emitters (a fixpoint round re-deriving mostly known facts) therefore pay
// no allocation per duplicate.
func (r *Relation) InsertValues(vals []value.Value) (bool, error) {
	if len(vals) != r.Arity {
		return false, fmt.Errorf("vadalog: arity mismatch: relation has arity %d, fact has %d", r.Arity, len(vals))
	}
	if r.sealed != nil {
		return false, ErrSealed
	}
	return r.insertHashed(hashTuple(vals), vals), nil
}

// insertHashed is InsertValues for a tuple of the relation's arity whose
// hashTuple h the caller already holds: the parallel merge inserts what the
// shards hashed without hashing again.
func (r *Relation) insertHashed(h uint64, vals []value.Value) bool {
	pos, slot := r.dedup.find(r.facts, h, vals)
	if pos >= 0 {
		return false
	}
	var f Fact
	if r.recycle && len(r.facts) < cap(r.facts) {
		// A pooled relation reuses the fact slot a prior generation left
		// behind the logical end of the slice.
		if old := r.facts[:len(r.facts)+1][len(r.facts)]; cap(old) >= len(vals) {
			f = old[:len(vals)]
		}
	}
	if f == nil {
		f = make(Fact, len(vals))
	}
	copy(f, vals)
	r.appendNew(h, slot, f)
	return true
}

// appendNew appends a fact known to be absent, recording it at the dedup
// slot find returned for it and in every materialized index. The relation
// takes ownership of f. The fact slice doubles when full: append grows a
// large slice by a quarter, which copies every fact header about five times
// over a fixpoint's growth instead of about once.
func (r *Relation) appendNew(h uint64, slot int, f Fact) {
	pos := len(r.facts)
	r.dedup.insert(h, slot, pos)
	if pos == cap(r.facts) && pos > 0 {
		grown := make([]Fact, pos, 2*pos)
		copy(grown, r.facts)
		r.facts = grown
	}
	r.facts = append(r.facts, f)
	for mask, idx := range r.indexes {
		ph := projectHash(f, mask)
		idx[ph] = append(idx[ph], pos)
	}
}

// projectHash hashes the values at the masked positions of a tuple.
func projectHash(f Fact, mask uint64) uint64 {
	h := uint64(fnvOffset64)
	for i, v := range f {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		h = hashValue(h, v)
	}
	return h
}

// warmIndex builds (if absent) the index for the given mask. The engine
// calls it for every mask a rule can consult before fanning that rule's
// evaluation out to worker goroutines: on a mutable relation index
// construction is the only lazy mutation on the read path, so after warming,
// concurrent VisitRange / Contains / At / Len calls are race-free as long as
// no Insert runs alongside them — which the parallel evaluator guarantees by
// buffering emissions until its merge barrier. A sealed relation builds its
// indexes race-free by itself; warming one only moves the build ahead of the
// fan-out.
func (r *Relation) warmIndex(mask uint64) {
	switch {
	case mask == 0:
	case r.sealed != nil:
		r.sealed.index(r.Arity, mask)
	default:
		r.ensureIndex(mask)
	}
}

func (r *Relation) ensureIndex(mask uint64) map[uint64][]int {
	if idx, ok := r.indexes[mask]; ok {
		return idx
	}
	idx := make(map[uint64][]int)
	for pos, f := range r.facts {
		ph := projectHash(f, mask)
		idx[ph] = append(idx[ph], pos)
	}
	r.indexes[mask] = idx
	return idx
}

// factMatches reports whether fact pos agrees with bound (the values of the
// masked positions, in ascending position order).
func (r *Relation) factMatches(pos int, mask uint64, bound []value.Value) bool {
	if r.sealed != nil {
		j := 0
		for m := mask & (1<<uint(r.Arity) - 1); m != 0; m &= m - 1 {
			if !value.Identical(r.sealed.rows.Cell(pos, bits.TrailingZeros64(m)), bound[j]) {
				return false
			}
			j++
		}
		return true
	}
	f := r.facts[pos]
	j := 0
	for i, v := range f {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !value.Identical(v, bound[j]) {
			return false
		}
		j++
	}
	return true
}

// All returns all facts in insertion order: a mutable relation's own slice,
// which must not be modified, or tuples assembled for this call from a
// sealed one's row source.
func (r *Relation) All() []Fact {
	if r.sealed == nil {
		return r.facts
	}
	out := make([]Fact, r.Len())
	for pos := range out {
		out[pos] = r.At(pos)
	}
	return out
}

// Remove deletes the given facts from the relation and returns the facts
// actually removed (facts that were absent, malformed, or listed twice are
// skipped). Removal costs O(k) in the number of facts removed, not O(n) in
// the relation size: each removed fact is unlinked from the dedup table and
// every posting list it appears in, and the relation's last fact is swapped
// into the vacated position with its own entries repointed. Incremental
// maintenance retracts a handful of facts from relations five orders of
// magnitude larger, so a rebuild here would cost as much as the full
// re-evaluation the maintenance layer exists to avoid.
//
// The relative order of the survivors is NOT preserved (the tail fact moves
// down); posting lists DO stay ascending, which the engine's window
// filtering binary-searches on. Because positions shift, Remove must never
// run while an engine holds position windows over the relation — the
// maintenance layer only calls it between evaluation phases.
func (r *Relation) Remove(facts []Fact) []Fact {
	return r.removeInto(nil, facts)
}

// removeInto is Remove accumulating into a caller-supplied buffer, so a
// caller that drains the result between calls (the maintenance loop) reuses
// one backing array instead of growing a fresh slice per relation.
func (r *Relation) removeInto(removed []Fact, facts []Fact) []Fact {
	if r.sealed != nil {
		panic(ErrSealed)
	}
	for _, f := range facts {
		if len(f) != r.Arity {
			continue
		}
		h := hashTuple(f)
		pos, _ := r.dedup.find(r.facts, h, f)
		if pos < 0 {
			continue // absent, or a duplicate of an earlier removal
		}
		removed = append(removed, r.facts[pos])
		r.removeAt(pos, h)
	}
	return removed
}

// removeAt unlinks the fact at pos (whose full-tuple hash is h) and moves the
// relation's last fact into its place.
func (r *Relation) removeAt(pos int, h uint64) {
	last := len(r.facts) - 1
	gone := r.facts[pos]
	r.dedup.remove(h, pos)
	for mask, idx := range r.indexes {
		ph := projectHash(gone, mask)
		if lst := postingDelete(idx[ph], pos); len(lst) > 0 {
			idx[ph] = lst
		} else {
			delete(idx, ph)
		}
	}
	if pos != last {
		moved := r.facts[last]
		r.facts[pos] = moved
		r.dedup.repoint(hashTuple(moved), last, pos)
		for mask, idx := range r.indexes {
			// last is the highest position in the relation, so it is the
			// final element of its ascending posting list; drop it there and
			// re-insert the fact at its new, lower position. If gone and
			// moved share the bucket, the delete above left last in place.
			mph := projectHash(moved, mask)
			lst := idx[mph]
			idx[mph] = postingInsert(lst[:len(lst)-1], pos)
		}
	}
	r.facts[last] = nil // release the tail slot for GC
	r.facts = r.facts[:last]
}

// postingDelete removes pos from an ascending posting list in place.
func postingDelete(lst []int, pos int) []int {
	i := sort.SearchInts(lst, pos)
	if i >= len(lst) || lst[i] != pos {
		return lst
	}
	return append(lst[:i], lst[i+1:]...)
}

// postingInsert inserts pos into an ascending posting list.
func postingInsert(lst []int, pos int) []int {
	i := sort.SearchInts(lst, pos)
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = pos
	return lst
}

// VisitRange invokes fn for every fact position in [lo, hi) whose mask-selected
// columns equal boundVals, in ascending position order, stopping at the first
// error from fn. Candidates are verified lazily, one at a time, so a caller
// that stops early (the engine's first-match cut) never pays for the rest of
// the hash bucket. mask 0 visits the whole window. It is the one probe API of
// both relation forms.
func (r *Relation) VisitRange(mask uint64, boundVals []value.Value, lo, hi int, fn func(pos int) error) error {
	if lo < 0 {
		lo = 0
	}
	if n := r.Len(); hi > n {
		hi = n
	}
	if lo >= hi {
		return nil
	}
	if mask == 0 {
		for pos := lo; pos < hi; pos++ {
			if err := fn(pos); err != nil {
				return err
			}
		}
		return nil
	}
	if bits.OnesCount64(mask&(1<<uint(r.Arity)-1)) != len(boundVals) {
		return nil // malformed probe: bound values don't line up with the mask
	}
	h := uint64(fnvOffset64)
	for _, v := range boundVals {
		h = hashValue(h, v)
	}
	if r.sealed != nil {
		return visitPostings(r, r.sealed.index(r.Arity, mask).bucket(h), mask, boundVals, lo, hi, fn)
	}
	return visitPostings(r, r.ensureIndex(mask)[h], mask, boundVals, lo, hi, fn)
}

// visitPostings walks the part of an ascending posting list that falls in
// [lo, hi), verifying each candidate against the bound values.
func visitPostings[P int | int32](r *Relation, cand []P, mask uint64, boundVals []value.Value, lo, hi int, fn func(pos int) error) error {
	if lo > 0 {
		i, j := 0, len(cand)
		for i < j {
			if m := int(uint(i+j) >> 1); int(cand[m]) < lo {
				i = m + 1
			} else {
				j = m
			}
		}
		cand = cand[i:]
	}
	for _, p := range cand {
		pos := int(p)
		if pos >= hi {
			break
		}
		if !r.factMatches(pos, mask, boundVals) {
			continue
		}
		if err := fn(pos); err != nil {
			return err
		}
	}
	return nil
}

// errFound stops an existence probe at its first verified candidate.
var errFound = errors.New("vadalog: found")

func stopAtFirst(int) error { return errFound }

// exists reports whether some fact agrees with boundVals on the masked
// columns (any fact at all for mask 0).
func (r *Relation) exists(mask uint64, boundVals []value.Value) bool {
	return r.VisitRange(mask, boundVals, 0, r.Len(), stopAtFirst) != nil
}

// Sorted returns the facts sorted lexicographically by value order, for
// deterministic output.
func (r *Relation) Sorted() []Fact {
	out := r.All()
	if r.sealed == nil {
		out = slices.Clone(out)
	}
	sort.Slice(out, func(i, j int) bool { return factLess(out[i], out[j]) })
	return out
}

func factLess(a, b Fact) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := value.Compare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// Database is a set of named relations: the (database) instance of Section 4.
type Database struct {
	rels map[string]*Relation
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Relation returns the named relation, or nil if absent.
func (d *Database) Relation(pred string) *Relation { return d.rels[pred] }

// EnsureRelation returns the named relation for writing, creating it with the
// given arity if absent and replacing a sealed one by a private mutable copy.
// It is an error to re-declare a relation with a different arity.
func (d *Database) EnsureRelation(pred string, arity int) (*Relation, error) {
	if r, ok := d.rels[pred]; ok {
		if r.Arity != arity {
			return nil, fmt.Errorf("vadalog: predicate %s used with arity %d and %d", pred, r.Arity, arity)
		}
		return d.mutable(pred), nil
	}
	r := NewRelation(arity)
	d.rels[pred] = r
	return r, nil
}

// AddFact inserts a fact into the named relation, creating the relation on
// first use. It reports whether the fact was new.
func (d *Database) AddFact(pred string, vals ...value.Value) (bool, error) {
	r, err := d.EnsureRelation(pred, len(vals))
	if err != nil {
		return false, err
	}
	return r.Insert(Fact(vals))
}

// MustAddFact is AddFact that panics on arity mismatch, for test fixtures and
// generated loaders whose arity is known correct by construction.
func (d *Database) MustAddFact(pred string, vals ...value.Value) {
	if _, err := d.AddFact(pred, vals...); err != nil {
		panic(err)
	}
}

// Facts returns the facts of a predicate in insertion order, or nil.
func (d *Database) Facts(pred string) []Fact {
	r := d.rels[pred]
	if r == nil {
		return nil
	}
	return r.All()
}

// SortedFacts returns the facts of a predicate in deterministic value order.
func (d *Database) SortedFacts(pred string) []Fact {
	r := d.rels[pred]
	if r == nil {
		return nil
	}
	return r.Sorted()
}

// Count returns the number of facts of a predicate.
func (d *Database) Count(pred string) int {
	r := d.rels[pred]
	if r == nil {
		return 0
	}
	return r.Len()
}

// TotalFacts returns the number of facts across all relations.
func (d *Database) TotalFacts() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Predicates returns the relation names, sorted.
func (d *Database) Predicates() []string {
	out := make([]string, 0, len(d.rels))
	for p := range d.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns an independent copy of the database: writes to either side,
// through the Database or an engine run, never show on the other. Sealed
// relations are shared by pointer, indexes included, so cloning a sealed
// database costs O(#relations); mutable relations are copied (facts are
// shared, as they are immutable; relation bookkeeping is rebuilt).
func (d *Database) Clone() *Database {
	out := &Database{rels: make(map[string]*Relation, len(d.rels))}
	for pred, r := range d.rels {
		if r.sealed == nil {
			r = r.mutableCopy()
		}
		out.rels[pred] = r
	}
	return out
}

// mutable returns the named relation for writing, first replacing a sealed
// one in this database's map by a mutable copy in the same insertion order.
// Other databases sharing the sealed relation keep it.
func (d *Database) mutable(pred string) *Relation {
	r := d.rels[pred]
	if r.sealed != nil {
		r = r.mutableCopy()
		d.rels[pred] = r
	}
	return r
}

// mutableCopy returns a mutable relation holding r's facts in r's order (a
// sealed relation's assembled from its rows). The facts of a relation are
// pairwise distinct, so none is probed for.
func (r *Relation) mutableCopy() *Relation {
	n := r.Len()
	nr := &Relation{
		Arity:   r.Arity,
		facts:   make([]Fact, 0, n),
		indexes: make(map[uint64]map[uint64][]int),
	}
	nr.dedup.reserve(n)
	for pos := 0; pos < n; pos++ {
		f := r.At(pos)
		nr.appendNew(hashTuple(f), -1, f)
	}
	return nr
}

// InstallRows swaps the named relation for a sealed one of the given arity
// reading its tuples from rows, in rows' order. Nothing is copied, hashed or
// probed here, which is what lets the fact extractors (internal/metalog),
// whose relations are row ids into a frozen graph's columns keyed by a unique
// OID, build and rebuild relations at the cost of the row ids alone.
func (d *Database) InstallRows(pred string, arity int, rows Rows) {
	d.rels[pred] = &Relation{Arity: arity, sealed: &sealedRel{rows: rows}}
}

// Dump renders the database deterministically, for tests and debugging.
func (d *Database) Dump() string {
	var b strings.Builder
	for _, pred := range d.Predicates() {
		for _, f := range d.SortedFacts(pred) {
			b.WriteString(pred)
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
