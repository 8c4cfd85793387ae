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

	// dedup maps a full-tuple hash to the first fact position with that
	// hash; dedupMore holds the rare further positions whose distinct tuples
	// share a hash. Splitting the two keeps the common case at one map word
	// per fact with no slice allocation.
	dedup     map[uint64]int32
	dedupMore map[uint64][]int32

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

	// sealed is non-nil exactly when the relation is sealed; facts, dedup,
	// dedupMore and indexes are then nil, and sealed holds the row source and
	// the lazily built indexes.
	sealed *sealedRel
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
	return &Relation{
		Arity:   arity,
		dedup:   make(map[uint64]int32),
		indexes: make(map[uint64]map[uint64][]int),
	}
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
// slots, dedup buckets and per-mask index maps are all retained. The
// maintenance path resets its pooled shadow relations between batches, so a
// steady-state Apply stops paying slice and map regrowth for them.
func (r *Relation) Reset() {
	if r.sealed != nil {
		panic(ErrSealed)
	}
	r.facts = r.facts[:0]
	clear(r.dedup)
	clear(r.dedupMore)
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

// dedupFind scans the positions hashed to h for one whose tuple equals f.
func (r *Relation) dedupFind(h uint64, f Fact) (int, bool) {
	pos, ok := r.dedup[h]
	if !ok {
		return 0, false
	}
	if tupleEqual(r.facts[pos], f) {
		return int(pos), true
	}
	for _, p := range r.dedupMore[h] {
		if tupleEqual(r.facts[p], f) {
			return int(p), true
		}
	}
	return 0, false
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
	_, found := r.dedupFind(hashTuple(f), f)
	return found
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
	if _, dup := r.dedupFind(h, f); dup {
		return false, nil
	}
	r.insertNew(h, f)
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
	h := hashTuple(vals)
	if _, dup := r.dedupFind(h, vals); dup {
		return false, nil
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
	r.insertNew(h, f)
	return true, nil
}

// insertNew appends a fact known to be absent, updating the dedup table and
// every materialized index. The relation takes ownership of f.
func (r *Relation) insertNew(h uint64, f Fact) {
	pos := len(r.facts)
	if _, taken := r.dedup[h]; taken {
		if r.dedupMore == nil {
			r.dedupMore = make(map[uint64][]int32)
		}
		r.dedupMore[h] = append(r.dedupMore[h], int32(pos))
	} else {
		r.dedup[h] = int32(pos)
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
// the relation size: each removed fact is unlinked from the dedup maps and
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
		pos, ok := r.dedupFind(h, f)
		if !ok {
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
	r.dedupUnlink(h, int32(pos))
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
		r.dedupRepoint(hashTuple(moved), int32(last), int32(pos))
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

// dedupUnlink removes the dedup entry mapping hash h to position pos,
// promoting an overflow position into the primary map when one exists.
func (r *Relation) dedupUnlink(h uint64, pos int32) {
	if p, ok := r.dedup[h]; ok && p == pos {
		if more := r.dedupMore[h]; len(more) > 0 {
			r.dedup[h] = more[len(more)-1]
			r.shrinkMore(h, len(more)-1)
		} else {
			delete(r.dedup, h)
		}
		return
	}
	more := r.dedupMore[h]
	for i, p := range more {
		if p == pos {
			more[i] = more[len(more)-1]
			r.shrinkMore(h, len(more)-1)
			return
		}
	}
}

// shrinkMore truncates the overflow list for h to n entries, dropping the
// key entirely when none remain.
func (r *Relation) shrinkMore(h uint64, n int) {
	if n == 0 {
		delete(r.dedupMore, h)
	} else {
		r.dedupMore[h] = r.dedupMore[h][:n]
	}
}

// dedupRepoint rewrites the dedup entry for hash h from position from to
// position to, wherever it lives.
func (r *Relation) dedupRepoint(h uint64, from, to int32) {
	if p, ok := r.dedup[h]; ok && p == from {
		r.dedup[h] = to
		return
	}
	more := r.dedupMore[h]
	for i, p := range more {
		if p == from {
			more[i] = to
			return
		}
	}
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
		dedup:   make(map[uint64]int32, n),
		indexes: make(map[uint64]map[uint64][]int),
	}
	for pos := 0; pos < n; pos++ {
		f := r.At(pos)
		nr.insertNew(hashTuple(f), f)
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
