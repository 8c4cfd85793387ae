package vadalog

import (
	"fmt"
	"math"
	"math/bits"
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

// aggGroup is one group of a stratified aggregate: its accumulator and the
// grouping values emitAggGroups binds again.
type aggGroup struct {
	aggAccum
	vals []value.Value
}

// pageBits sets the page size of the monotonic aggregates' state and of the
// parallel shards' emission buffers: 1,024 entries a page.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// paged is a growable array of fixed-width entries kept in fixed-size pages.
// Growing adds a page and never copies or re-zeroes the entries already held,
// so a state of n entries allocates about n entries, where a slice grown by
// append copies its multi-MB tail again on every growth.
type paged[T any] struct {
	width int   // elements per entry
	n     int32 // entries held
	pages [][]T
}

// push adds an entry and returns its index. The entry is zero unless reset
// kept the page it lands on.
func (p *paged[T]) push() int32 {
	if p.n&pageMask == 0 && int(p.n>>pageBits) == len(p.pages) {
		p.pages = append(p.pages, make([]T, pageLen*p.width))
	}
	p.n++
	return p.n - 1
}

// reset empties p for entries of the given width, keeping the leading pages
// that hold a page of such entries, so a buffer refilled on every round
// allocates only when a round outgrows the rounds before it.
func (p *paged[T]) reset(width int) {
	for i, pg := range p.pages {
		if len(pg) < pageLen*width {
			p.pages = p.pages[:i]
			break
		}
	}
	p.width, p.n = width, 0
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

// monoGroup is the pointer-free part of a monotonic group: the previous
// group with the same hash (-1 ends the chain) and the numeric fold.
type monoGroup struct {
	next int32
	fold numFold
}

// monoContrib chains a contributor to the previous one with the same hash
// (-1 ends the chain) and names the group it was folded into.
type monoContrib struct {
	next, group int32
}

// monoAgg is the state of a rule's monotonic aggregate, kept across the
// rounds of a run and across the batches a Maintainer resumes: the groups,
// and per group the contributor tuples already folded in. Groups and
// contributors are keyed by tuple hash (hashValue) and told apart by
// value.Identical: Int 1, Float 1.0 and String "1" are distinct, every NaN
// is one value, +0 and -0 are two — exactly the identity the canonical key
// strings draw.
//
// Storage is paged (DESIGN.md §5): group g has its chain link and numeric
// fold in groups, its values in groupVals and, for min and max only, its
// running extreme in exts; contributor c has its chain link and group in
// contribs and its values in contribVals. The head tables lead from a hash
// to the newest entry carrying it; the links chain the older ones.
type monoAgg struct {
	op                       string
	groupSlots, contribSlots []int

	groupHeads hashHeads
	groups     paged[monoGroup]
	groupVals  paged[value.Value]
	exts       paged[value.Value]

	contribHeads hashHeads
	contribs     paged[monoContrib]
	contribVals  paged[value.Value]
}

func newMonoAgg(op string, groupSlots, contribSlots []int) *monoAgg {
	m := &monoAgg{
		op: op, groupSlots: groupSlots, contribSlots: contribSlots,
		groups:      paged[monoGroup]{width: 1},
		groupVals:   paged[value.Value]{width: len(groupSlots)},
		contribs:    paged[monoContrib]{width: 1},
		contribVals: paged[value.Value]{width: len(contribSlots)},
	}
	if op == "min" || op == "max" {
		m.exts.width = 1
	}
	return m
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

// monoKey locates one body match in a monotonic aggregate's state: its group
// (-1 while the group is new), and the hashes of the group and of the
// contributor within it with their head table slots, so admit links new
// entries without probing again.
type monoKey struct {
	g            int32
	gh, ch       uint64
	gSlot, cSlot int
}

// probe finds the group and the contributor the slots bind, without changing
// the state. It reports seen when the group has already folded the
// contributor in.
func (m *monoAgg) probe(slots []value.Value) (k monoKey, seen bool) {
	k.gh = hashSlots(fnvOffset64, m.groupSlots, slots)
	k.ch = hashSlots(k.gh, m.contribSlots, slots)
	k.g = -1
	k.gSlot, k.cSlot = m.groupHeads.slot(k.gh), m.contribHeads.slot(k.ch)
	for id := m.groupHeads.head(k.gSlot) - 1; id >= 0; id = m.groups.at(id).next {
		if slotsIdentical(m.groupVals.row(id), m.groupSlots, slots) {
			k.g = id
			break
		}
	}
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

// accum returns the running state of the probed group: a fresh one while the
// group is new.
func (m *monoAgg) accum(k monoKey) aggAccum {
	if k.g < 0 {
		return newAggAccum(m.op)
	}
	a := aggAccum{numFold: m.groups.at(k.g).fold}
	if m.exts.width > 0 {
		a.ext = *m.exts.at(k.g)
	}
	return a
}

// admit records the probed contributor as folded in — adding its group on
// first sight — and stores the group's new running state a.
func (m *monoAgg) admit(k monoKey, a *aggAccum, slots []value.Value) {
	g := k.g
	if g < 0 {
		g = m.groups.push()
		m.groups.at(g).next = m.groupHeads.head(k.gSlot) - 1
		m.groupHeads.set(k.gSlot, k.gh, g+1)
		vals := m.groupVals.row(m.groupVals.push())
		for i, s := range m.groupSlots {
			vals[i] = slots[s]
		}
		if m.exts.width > 0 {
			m.exts.push()
		}
	}
	m.groups.at(g).fold = a.numFold
	if m.exts.width > 0 {
		*m.exts.at(g) = a.ext
	}
	c := m.contribs.push()
	*m.contribs.at(c) = monoContrib{next: m.contribHeads.head(k.cSlot) - 1, group: g}
	m.contribHeads.set(k.cSlot, k.ch, c+1)
	vals := m.contribVals.row(m.contribVals.push())
	for i, s := range m.contribSlots {
		vals[i] = slots[s]
	}
}
