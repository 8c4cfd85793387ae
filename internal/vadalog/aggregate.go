package vadalog

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/value"
)

// numFold is the numeric running state of an aggregate group: the count,
// and the fold of sum, avg and prod. It holds no pointers, so the monotonic
// aggregates' pages of it cost the garbage collector nothing to scan.
type numFold struct {
	count int64
	// fnum is the float fold of sum and avg (from 0) or of prod (from 1).
	// inum is the same fold in int64; the result reads it while exact holds:
	// every input so far an Int, and no step past the int64 range.
	fnum  float64
	inum  int64
	exact bool
}

func newNumFold(op string) numFold {
	if op == "prod" {
		return numFold{fnum: 1, inum: 1, exact: true}
	}
	return numFold{exact: true}
}

func (a *numFold) update(op string, v value.Value) error {
	switch op {
	case "count":
	case "sum", "avg", "prod":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("vadalog: %s over non-numeric value %s", op, v)
		}
		a.exact = a.exact && v.K == value.Int
		if op == "prod" {
			a.fnum *= f
			if a.exact {
				a.inum, a.exact = mulInt64(a.inum, v.I)
			}
		} else {
			a.fnum += f
			if a.exact {
				a.inum, a.exact = addInt64(a.inum, v.I)
			}
		}
	default:
		return fmt.Errorf("vadalog: unknown aggregate %q", op)
	}
	a.count++
	return nil
}

func (a *numFold) current(op string) value.Value {
	switch op {
	case "count":
		return value.IntV(a.count)
	case "sum", "prod":
		if a.exact {
			return value.IntV(a.inum)
		}
		return value.FloatV(a.fnum)
	case "avg":
		if a.count == 0 {
			return value.FloatV(0)
		}
		return value.FloatV(a.fnum / float64(a.count))
	default:
		return value.Value{}
	}
}

// aggAccum is the running state of one aggregate group: the numeric fold,
// plus the running extreme of min and max and the items of pack.
type aggAccum struct {
	numFold
	ext value.Value
	// packItems collects name=value pairs for pack.
	packItems []string
}

func newAggAccum(op string) aggAccum { return aggAccum{numFold: newNumFold(op)} }

func (a *aggAccum) update(op string, v value.Value, v2 value.Value) error {
	switch op {
	case "min":
		if a.count == 0 || value.Compare(v, a.ext) < 0 {
			a.ext = v
		}
	case "max":
		if a.count == 0 || value.Compare(v, a.ext) > 0 {
			a.ext = v
		}
	case "pack":
		a.packItems = append(a.packItems, v.String()+"="+v2.String())
	default:
		return a.numFold.update(op, v)
	}
	a.count++
	return nil
}

func (a *aggAccum) current(op string) value.Value {
	switch op {
	case "min", "max":
		return a.ext
	case "pack":
		items := append([]string(nil), a.packItems...)
		sort.Strings(items)
		return value.Str(strings.Join(items, "|"))
	default:
		return a.numFold.current(op)
	}
}

// addInt64 and mulInt64 return x+y and x*y and whether the result is exact,
// that is, did not leave the int64 range.
func addInt64(x, y int64) (int64, bool) {
	s := x + y
	return s, (s > x) == (y > 0)
}

func mulInt64(x, y int64) (int64, bool) {
	if x == 0 || y == 0 {
		return 0, true
	}
	p := x * y
	return p, p/y == x && !(y == -1 && x == math.MinInt64)
}

// pageBits sets the page size of paged arrays: 1,024 entries a page.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// paged is a growable array of fixed-width entries kept in pages: relation
// rows, monotonic aggregate state, shard emission buffers. The first page
// doubles from 8 entries up to pageLen, so a small state stays small (a full
// page of width 3 is ~147 KB); past it, growth appends a full page and never
// copies what is held, where append would copy a multi-MB tail on every
// growth. Entry i is on page i>>pageBits either way.
type paged[T any] struct {
	width int   // elements per entry
	n     int32 // entries held
	cap   int32 // entries the pages have room for
	pages [][]T
}

// push adds an entry and returns its index. The entry is zero unless reset
// kept the page it lands on.
func (p *paged[T]) push() int32 {
	if p.n == p.cap {
		p.grow()
	}
	p.n++
	return p.n - 1
}

// grow makes room for more entries: it appends a full page, or doubles the
// first page while that is short of pageLen entries (and so the only page).
func (p *paged[T]) grow() {
	if p.cap >= pageLen {
		p.pages = append(p.pages, make([]T, pageLen*p.width))
		p.cap += pageLen
		return
	}
	p.cap = min(max(8, 2*p.cap), pageLen)
	first := make([]T, int(p.cap)*p.width)
	if len(p.pages) > 0 {
		copy(first, p.pages[0])
	}
	p.pages = append(p.pages[:0], first)
}

// reset empties p for entries of the given width, keeping the leading pages
// that hold a page of such entries, or else a short first page, so a buffer
// refilled on every round or batch allocates only when it outgrows the
// fills before it.
func (p *paged[T]) reset(width int) {
	keep := 0
	for keep < len(p.pages) && len(p.pages[keep]) >= pageLen*width {
		keep++
	}
	p.width, p.n, p.cap = width, 0, int32(keep*pageLen)
	if keep == 0 && len(p.pages) > 0 && len(p.pages[0]) >= width {
		keep, p.cap = 1, int32(len(p.pages[0])/width)
	}
	p.pages = p.pages[:keep]
}

// clone returns a copy of p's entries in pages of its own.
func (p *paged[T]) clone() paged[T] {
	q := *p
	q.pages = make([][]T, (p.n+pageMask)>>pageBits)
	for i := range q.pages {
		q.pages[i] = slices.Clone(p.pages[i])
	}
	q.cap = min(p.cap, int32(len(q.pages)*pageLen))
	return q
}

// row returns the elements of entry i.
func (p *paged[T]) row(i int32) []T {
	off := int(i&pageMask) * p.width
	return p.pages[i>>pageBits][off : off+p.width : off+p.width]
}

// at returns the first element of entry i: the entry itself at width 1.
func (p *paged[T]) at(i int32) *T {
	return &p.pages[i>>pageBits][int(i&pageMask)*p.width]
}

// hashHeads maps a tuple hash to one more than the newest state entry
// carrying it (0: none), by open addressing with linear probing at a load of
// at most 1/2. slot returns the slot a hash occupies or would occupy, so the
// insert that follows a miss writes there without probing again.
type hashHeads struct {
	slots []hashHead
	used  int
	shift uint8 // 64 - log2(len(slots))
}

type hashHead struct {
	hash uint64
	head int32 // 0 marks a free slot
}

const minHashHeads = 256

func (t *hashHeads) slot(h uint64) int {
	if t.slots == nil {
		t.slots, t.shift = make([]hashHead, minHashHeads), uint8(64-bits.Len(minHashHeads-1))
	}
	mask := len(t.slots) - 1
	// Fibonacci hashing spreads the high bits of h over the table.
	for i := int((h * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.head == 0 || s.hash == h {
			return i
		}
	}
}

// head returns the entry head at slot i.
func (t *hashHeads) head(i int) int32 { return t.slots[i].head }

// set stores head for hash h at slot i, which slot(h) returned with no
// write to t since. Slots found before a set are stale after it.
func (t *hashHeads) set(i int, h uint64, head int32) {
	if t.slots[i].head == 0 {
		t.used++
	}
	t.slots[i] = hashHead{hash: h, head: head}
	if 2*t.used > len(t.slots) {
		old := t.slots
		t.slots, t.shift = make([]hashHead, 2*len(old)), t.shift-1
		for _, s := range old {
			if s.head != 0 {
				t.slots[t.slot(s.hash)] = s
			}
		}
	}
}

// groupEntry is the pointer-free part of an aggregate group: the previous
// group with the same hash (-1 ends the chain) and the numeric fold.
type groupEntry struct {
	next int32
	fold numFold
}

// groupTable holds the groups of one aggregate, stratified or monotonic,
// keyed by the hash of their grouping values (hashSlots) and told apart by
// value.Identical: Int 1, Float 1.0 and String "1" are three groups, every
// NaN is one group, +0 and -0 are two — exactly the identity the canonical
// key strings draw.
//
// Storage is paged (DESIGN.md §5): group g has its chain link and numeric
// fold in groups, its grouping values in vals and, for min and max only, its
// running extreme in exts; for pack only, its items in packs. heads leads
// from a hash to the newest group carrying it; the links chain the older
// ones.
type groupTable struct {
	op     string
	slots  []int // the grouping variables' slots
	heads  hashHeads
	groups paged[groupEntry]
	vals   paged[value.Value]
	exts   paged[value.Value]
	packs  [][]string
}

func newGroupTable(op string, slots []int) groupTable {
	t := groupTable{
		op: op, slots: slots,
		groups: paged[groupEntry]{width: 1},
		vals:   paged[value.Value]{width: len(slots)},
	}
	if op == "min" || op == "max" {
		t.exts.width = 1
	}
	return t
}

// groupRef locates the group a binding falls into: its id (-1 while the
// group is new), and its hash with the head table slot, so add links a new
// group without probing again.
type groupRef struct {
	g    int32
	h    uint64
	slot int
}

// find returns the key of the group the slots bind, under the group hash h.
func (t *groupTable) find(h uint64, slots []value.Value) groupRef {
	k := groupRef{g: -1, h: h, slot: t.heads.slot(h)}
	for id := t.heads.head(k.slot) - 1; id >= 0; id = t.groups.at(id).next {
		if slotsIdentical(t.vals.row(id), t.slots, slots) {
			k.g = id
			break
		}
	}
	return k
}

// add adds the group the slots bind, which find did not hold, and returns
// its id. Head table slots found before it are stale after it.
func (t *groupTable) add(k groupRef, slots []value.Value) int32 {
	g := t.groups.push()
	*t.groups.at(g) = groupEntry{next: t.heads.head(k.slot) - 1, fold: newNumFold(t.op)}
	t.heads.set(k.slot, k.h, g+1)
	vals := t.vals.row(t.vals.push())
	for i, s := range t.slots {
		vals[i] = slots[s]
	}
	if t.exts.width > 0 {
		t.exts.push()
	}
	if t.op == "pack" {
		t.packs = append(t.packs, nil)
	}
	return g
}

// accum returns the running state of group g: a fresh one for g < 0.
func (t *groupTable) accum(g int32) aggAccum {
	if g < 0 {
		return newAggAccum(t.op)
	}
	a := aggAccum{numFold: t.groups.at(g).fold}
	if t.exts.width > 0 {
		a.ext = *t.exts.at(g)
	}
	if t.packs != nil {
		a.packItems = t.packs[g]
	}
	return a
}

// store makes a the running state of group g.
func (t *groupTable) store(g int32, a *aggAccum) {
	t.groups.at(g).fold = a.numFold
	if t.exts.width > 0 {
		*t.exts.at(g) = a.ext
	}
	if t.packs != nil {
		t.packs[g] = a.packItems
	}
}

// len returns the number of groups.
func (t *groupTable) len() int32 { return t.groups.n }

// monoContrib chains a contributor to the previous one with the same hash
// (-1 ends the chain) and names the group it was folded into.
type monoContrib struct {
	next, group int32
}

// monoAgg is the state of a rule's monotonic aggregate, kept across the
// rounds of a run and across the batches a Maintainer resumes: its group
// table, and per group the contributor tuples already folded in.
// Contributors are keyed like groups, by tuple hash and value.Identical;
// contributor c has its chain link and group in contribs and its values in
// contribVals.
type monoAgg struct {
	groupTable
	contribSlots []int

	contribHeads hashHeads
	contribs     paged[monoContrib]
	contribVals  paged[value.Value]
}

func newMonoAgg(op string, groupSlots, contribSlots []int) *monoAgg {
	return &monoAgg{
		groupTable:   newGroupTable(op, groupSlots),
		contribSlots: contribSlots,
		contribs:     paged[monoContrib]{width: 1},
		contribVals:  paged[value.Value]{width: len(contribSlots)},
	}
}

// slotsIdentical reports whether the values stored from an earlier binding
// equal, value by value, the ones the slots bind now.
func slotsIdentical(stored []value.Value, slotIdx []int, slots []value.Value) bool {
	for i, s := range slotIdx {
		if !value.Identical(stored[i], slots[s]) {
			return false
		}
	}
	return true
}

func hashSlots(h uint64, slotIdx []int, slots []value.Value) uint64 {
	for _, s := range slotIdx {
		h = hashValue(h, slots[s])
	}
	return h
}

// monoKey locates one body match in a monotonic aggregate's state: its group,
// and the hash of the contributor within it with its head table slot, so
// admit links new entries without probing again.
type monoKey struct {
	groupRef
	ch    uint64
	cSlot int
}

// probe finds the group and the contributor the slots bind, without changing
// the state. It reports seen when the group has already folded the
// contributor in.
func (m *monoAgg) probe(slots []value.Value) (k monoKey, seen bool) {
	gh := hashSlots(fnvOffset64, m.slots, slots)
	k.ch = hashSlots(gh, m.contribSlots, slots)
	k.cSlot = m.contribHeads.slot(k.ch)
	k.groupRef = m.find(gh, slots)
	if k.g < 0 {
		return k, false
	}
	for id := m.contribHeads.head(k.cSlot) - 1; id >= 0; id = m.contribs.at(id).next {
		if c := m.contribs.at(id); c.group == k.g && slotsIdentical(m.contribVals.row(id), m.contribSlots, slots) {
			return k, true
		}
	}
	return k, false
}

// admit records the probed contributor as folded in — adding its group on
// first sight — and stores the group's new running state a.
func (m *monoAgg) admit(k monoKey, a *aggAccum, slots []value.Value) {
	g := k.g
	if g < 0 {
		g = m.add(k.groupRef, slots)
	}
	m.store(g, a)
	c := m.contribs.push()
	*m.contribs.at(c) = monoContrib{next: m.contribHeads.head(k.cSlot) - 1, group: g}
	m.contribHeads.set(k.cSlot, k.ch, c+1)
	vals := m.contribVals.row(m.contribVals.push())
	for i, s := range m.contribSlots {
		vals[i] = slots[s]
	}
}
