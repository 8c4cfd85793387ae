package vadalog

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/value"
)

// aggAccum is the running state of one aggregate group.
type aggAccum struct {
	count int64
	// fnum is the float fold of sum and avg (from 0) or of prod (from 1).
	// inum is the same fold in int64; the result reads it while exact holds:
	// every input so far an Int, and no step past the int64 range.
	fnum float64
	inum int64
	// ext is the running min or max.
	ext value.Value
	// packItems collects name=value pairs for pack.
	packItems []string
	exact     bool
}

func newAggAccum(op string) aggAccum {
	if op == "prod" {
		return aggAccum{fnum: 1, inum: 1, exact: true}
	}
	return aggAccum{exact: true}
}

func (a *aggAccum) update(op string, v value.Value, v2 value.Value) error {
	switch op {
	case "count":
		a.count++
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
		a.count++
	case "min":
		if a.count == 0 || value.Compare(v, a.ext) < 0 {
			a.ext = v
		}
		a.count++
	case "max":
		if a.count == 0 || value.Compare(v, a.ext) > 0 {
			a.ext = v
		}
		a.count++
	case "pack":
		a.packItems = append(a.packItems, v.String()+"="+v2.String())
		a.count++
	default:
		return fmt.Errorf("vadalog: unknown aggregate %q", op)
	}
	return nil
}

func (a *aggAccum) current(op string) value.Value {
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
	case "min", "max":
		return a.ext
	case "pack":
		items := append([]string(nil), a.packItems...)
		sort.Strings(items)
		return value.Str(strings.Join(items, "|"))
	default:
		return value.Value{}
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

// monoAgg is the state of a rule's monotonic aggregate, kept across the
// rounds of a run and across Incremental propagations: the groups, and per
// group the contributor tuples already folded in. Groups and contributors are
// keyed by tuple hash (hashValue) and told apart by value.Identical: Int 1,
// Float 1.0 and String "1" are distinct, every NaN is one value, +0 and -0
// are two — exactly the identity the canonical key strings draw.
//
// Storage is flat, with no allocation per group or contributor: group g's
// values are groupVals[g*gw:(g+1)*gw] and its accumulator accs[g];
// contributor c belongs to group contribGroup[c] and has values
// contribVals[c*cw:(c+1)*cw]. The head maps hold, per hash, one more than
// the newest entry carrying it (0: none); the next arrays chain each entry to
// the previous one with the same hash (-1 ends a chain).
type monoAgg struct {
	op string

	groupHead map[uint64]int32
	groupNext []int32
	groupVals []value.Value
	accs      []aggAccum

	contribHead  map[uint64]int32
	contribNext  []int32
	contribGroup []int32
	contribVals  []value.Value
}

func newMonoAgg(op string) *monoAgg {
	return &monoAgg{op: op, groupHead: map[uint64]int32{}, contribHead: map[uint64]int32{}}
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

// group returns the id of the group whose values the groupSlots bind, adding
// the group on first sight.
func (m *monoAgg) group(groupSlots []int, slots []value.Value) int32 {
	h := uint64(fnvOffset64)
	for _, s := range groupSlots {
		h = hashValue(h, slots[s])
	}
	gw := len(groupSlots)
	for id := m.groupHead[h] - 1; id >= 0; id = m.groupNext[id] {
		if slotsIdentical(m.groupVals[int(id)*gw:], groupSlots, slots) {
			return id
		}
	}
	id := int32(len(m.accs))
	for _, s := range groupSlots {
		m.groupVals = append(m.groupVals, slots[s])
	}
	m.accs = append(m.accs, newAggAccum(m.op))
	m.groupNext = append(m.groupNext, m.groupHead[h]-1)
	m.groupHead[h] = id + 1
	return id
}

// admit records the contributor tuple the contribSlots bind under group g,
// reporting false when the group has already folded it in.
func (m *monoAgg) admit(g int32, contribSlots []int, slots []value.Value) bool {
	h := (uint64(fnvOffset64) ^ uint64(g)) * fnvPrime64
	for _, s := range contribSlots {
		h = hashValue(h, slots[s])
	}
	cw := len(contribSlots)
	for id := m.contribHead[h] - 1; id >= 0; id = m.contribNext[id] {
		if m.contribGroup[id] == g && slotsIdentical(m.contribVals[int(id)*cw:], contribSlots, slots) {
			return false
		}
	}
	id := int32(len(m.contribGroup))
	m.contribGroup = append(m.contribGroup, g)
	for _, s := range contribSlots {
		m.contribVals = append(m.contribVals, slots[s])
	}
	m.contribNext = append(m.contribNext, m.contribHead[h]-1)
	m.contribHead[h] = id + 1
	return true
}
