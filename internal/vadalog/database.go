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
// and join indexes and the aggregates' group tables do not use it (they key
// on tuple hashes, below); its sorted order remains the emission order of a
// stratified aggregate's groups (appendKey, once per group), and it is the
// key of the provenance store, where a printable key is worth the
// allocation.
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
// forms. A mutable relation (NewRelation) owns its tuples, kept as rows in
// pages, is append-only with swap-removal, and keeps a dedup table and one
// flat key table per probed mask current on every write. A sealed relation
// (Database.InstallRows) reads its tuples from a Rows source it does not
// own: it has no dedup table, its indexes are flat arrays over positions
// built lazily and at most once (sealed.go), and any number of databases
// and goroutines share it by pointer. Writers never see one: the database
// hands them a private mutable copy instead (Database.mutable).
//
// Facts keep their insertion order, which lets the semi-naive engine address
// "old" and "delta" windows of the same relation by position ranges instead
// of copying snapshots. A position is a row id: the mutable form keeps row
// pos at entry pos of one paged array of the relation's width, so a tuple
// costs its cells and no allocation of its own.
//
// Deduplication and the join indexes key on tuple hashes over the values'
// identity (value.Identical) instead of concatenated canonical strings: an
// insert and an index probe allocate no key material, and hash collisions are
// resolved by comparing values — never by re-encoding.
type Relation struct {
	Arity int
	rows  paged[value.Value] // the mutable form's tuples; empty when sealed

	// dedup leads from a tuple hash to the position of the equal fact.
	dedup tupleTable

	// indexes holds one index per bitmask of bound positions, from the
	// projected tuple's hash to its ascending fact positions (index.go). Once
	// built for a mask, an index is maintained incrementally by every write.
	// Probes verify the candidate facts value by value, so a hash collision
	// costs a skipped candidate, never a wrong answer.
	indexes []*keyIndex

	// sealed is non-nil exactly when the relation is sealed; rows, dedup
	// and indexes are then empty, and sealed holds the row source and the
	// lazily built indexes.
	sealed *sealedRel

	// view is the slice All last returned, rewritten by the next call.
	view []Fact
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

// fibHome is the first slot of fingerprint fp's probe run in a table of
// 2^(32-shift) slots: Fibonacci hashing spreads the fingerprint's bits over
// the table. The dedup table and the relation's indexes (index.go) share it.
func fibHome(fp uint32, shift uint8) int { return int((fp * 0x9e3779b9) >> shift) }

// home is the first slot of fingerprint fp's probe run.
func (t *tupleTable) home(fp uint32) int { return fibHome(fp, t.shift) }

// find returns the position of the row in rows equal to vals (whose
// hashTuple is h) and its slot, or position -1 and the free slot an insert
// of vals writes (-1 while the table holds no slots). It reads only, so it
// is safe alongside other reads.
func (t *tupleTable) find(rows *paged[value.Value], h uint64, vals []value.Value) (pos, slot int) {
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
			if p := int(uint32(s)) - 1; tupleEqual(rows.row(int32(p)), vals) {
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

// ErrSealed is returned by Insert on a sealed relation, and
// is the panic value of Remove and Reset on one. Reaching it is a bug in the
// caller: relations obtained from a database that may be sealed are read-only,
// and writes go through the Database (AddFact, EnsureRelation, InstallRows)
// or an engine run, which replace a sealed relation by a mutable copy first.
var ErrSealed = errors.New("vadalog: write to a sealed relation")

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, rows: paged[value.Value]{width: arity}}
}

// Len returns the number of facts.
func (r *Relation) Len() int {
	if r.sealed != nil {
		return r.sealed.rows.Len()
	}
	return int(r.rows.n)
}

// row returns row pos of a mutable relation, in place.
func (r *Relation) row(pos int) []value.Value { return r.rows.row(int32(pos)) }

// Rows returns the row source of a sealed relation, nil for a mutable one.
func (r *Relation) Rows() Rows {
	if r.sealed == nil {
		return nil
	}
	return r.sealed.rows
}

// Reset empties the relation while keeping its row pages, dedup slots and
// per-mask index tables and arenas: the maintenance path resets its pooled
// shadow relations between batches, so a steady-state Apply stops paying
// for their regrowth.
func (r *Relation) Reset() {
	if r.sealed != nil {
		panic(ErrSealed)
	}
	r.rows.reset(r.Arity)
	r.dedup.reset()
	for _, ix := range r.indexes {
		ix.reset()
	}
}

// At returns a copy of the fact at the given position.
func (r *Relation) At(pos int) Fact {
	if r.sealed == nil {
		return slices.Clone(Fact(r.row(pos)))
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
	pos, _ := r.dedup.find(&r.rows, hashTuple(f), f)
	return pos >= 0
}

// Insert adds a copy of a fact, reporting whether it was new; the caller
// keeps f, and may reuse it as scratch. A duplicate costs no allocation. It
// is an error to insert a fact of the wrong arity.
func (r *Relation) Insert(f Fact) (bool, error) {
	if len(f) != r.Arity {
		return false, fmt.Errorf("vadalog: arity mismatch: relation has arity %d, fact has %d", r.Arity, len(f))
	}
	if r.sealed != nil {
		return false, ErrSealed
	}
	return r.insertHashed(hashTuple(f), f), nil
}

// insertHashed is Insert for a tuple of the relation's arity whose hashTuple
// h the caller already holds: the parallel merge inserts what the shards
// hashed without hashing again.
func (r *Relation) insertHashed(h uint64, vals []value.Value) bool {
	pos, slot := r.dedup.find(&r.rows, h, vals)
	if pos >= 0 {
		return false
	}
	r.appendNew(h, slot, vals)
	return true
}

// appendNew copies a tuple known to be absent into a new row, recording it
// at the dedup slot find returned for it and in every materialized index.
func (r *Relation) appendNew(h uint64, slot int, vals []value.Value) {
	pos := r.rows.push()
	row := r.rows.row(pos)
	copy(row, vals)
	r.dedup.insert(h, slot, int(pos))
	for _, ix := range r.indexes {
		ix.add(projectHash(row, ix.mask), pos)
	}
}

// projectHash hashes the values at the masked positions of a tuple.
func projectHash(f []value.Value, mask uint64) uint64 {
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

// ensureIndex returns a mutable relation's index for mask, building it over
// the rows held if absent.
func (r *Relation) ensureIndex(mask uint64) *keyIndex {
	for _, ix := range r.indexes {
		if ix.mask == mask {
			return ix
		}
	}
	ix := buildKeyIndex(&r.rows, mask)
	r.indexes = append(r.indexes, ix)
	return ix
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
	j := 0
	for i, v := range r.row(pos) {
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

// All returns the facts in insertion order: a sealed relation's assembled
// for the call, a mutable one's as views of its rows in one slice the
// relation reuses, valid until its next write or All call and not to be
// modified. A maintained relation is read after every batch, and a copy
// per read would cost the relation's size in garbage each time; a reader
// that keeps facts across a write copies them, as At and Remove do.
func (r *Relation) All() []Fact {
	n := r.Len()
	if r.sealed != nil {
		out := make([]Fact, n)
		for pos := range out {
			out[pos] = r.At(pos)
		}
		return out
	}
	r.view = slices.Grow(r.view[:0], n)
	for pos := 0; pos < n; pos++ {
		r.view = append(r.view, r.row(pos))
	}
	return r.view
}

// Remove deletes the given facts from the relation and returns copies of the
// facts actually removed (facts that were absent, malformed, or listed twice
// are skipped). Removal costs O(k) in the number of facts removed, not O(n) in
// the relation size: each removed fact is unlinked from the dedup table and
// from its key's run in every index, and the relation's last fact is swapped
// into the vacated position with its own entries repointed. Incremental
// maintenance retracts a handful of facts from relations five orders of
// magnitude larger, so a rebuild here would cost as much as the full
// re-evaluation the maintenance layer exists to avoid.
//
// The relative order of the survivors is NOT preserved (the tail fact moves
// down); index runs DO stay ascending, which the engine's window
// filtering binary-searches on. Because positions shift, Remove must never
// run while an engine holds position windows over the relation — the
// maintenance layer only calls it between evaluation phases.
func (r *Relation) Remove(batch []Fact) []Fact {
	if r.sealed != nil {
		panic(ErrSealed)
	}
	var removed []Fact
	for _, f := range batch {
		if len(f) != r.Arity {
			continue
		}
		h := hashTuple(f)
		pos, _ := r.dedup.find(&r.rows, h, f)
		if pos < 0 {
			continue // absent, or a duplicate of an earlier removal
		}
		removed = append(removed, r.At(pos))
		r.removeAt(pos, h)
	}
	return removed
}

// removeAt unlinks the row at pos (whose full-tuple hash is h) from the
// dedup table and its key's run in every index, and copies the relation's
// last row into its place, moving last to pos in the moved row's runs.
func (r *Relation) removeAt(pos int, h uint64) {
	last := r.Len() - 1
	gone := r.row(pos)
	r.dedup.remove(h, pos)
	for _, ix := range r.indexes {
		ix.remove(projectHash(gone, ix.mask), int32(pos))
	}
	if pos != last {
		moved := r.row(last)
		r.dedup.repoint(hashTuple(moved), last, pos)
		for _, ix := range r.indexes {
			// last is the highest position in the relation, so it is the
			// final element of its ascending run, whether or not gone's
			// removal above shared the run.
			ix.move(projectHash(moved, ix.mask), int32(pos))
		}
		copy(gone, moved)
	}
	r.rows.n--
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
	var buf [2]int32
	return visitPostings(r, r.ensureIndex(mask).run(h, &buf), mask, boundVals, lo, hi, fn)
}

// visitPostings walks the part of an ascending run of positions (a mutable
// index's run, a sealed index's bucket) that falls in [lo, hi), verifying
// each candidate against the bound values.
func visitPostings(r *Relation, cand []int32, mask uint64, boundVals []value.Value, lo, hi int, fn func(pos int) error) error {
	if lo > 0 {
		i, _ := slices.BinarySearch(cand, int32(lo))
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
// deterministic output: All's facts, in a slice of their own.
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

// Facts returns the facts of a predicate in insertion order (Relation.All),
// or nil.
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
// database costs O(#relations); mutable relations are copied page by page, with
// their dedup tables (their indexes are rebuilt on first use).
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

// mutableCopy returns a mutable relation holding r's facts in r's order: a
// mutable relation's pages and dedup slots copied as they are, a sealed
// relation's rows assembled from its row source. The facts of a relation are
// pairwise distinct, so none is probed for.
func (r *Relation) mutableCopy() *Relation {
	nr := NewRelation(r.Arity)
	if r.sealed == nil {
		nr.rows, nr.dedup = r.rows.clone(), r.dedup
		nr.dedup.slots = slices.Clone(r.dedup.slots)
		return nr
	}
	for pos := 0; pos < r.Len(); pos++ {
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
