package metalog

import (
	"slices"

	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/symtab"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// The fact layout: the one place where a graph construct becomes a tuple and
// a derived tuple becomes a construct again (translation step (1) of Section
// 4; the input and output views of Algorithm 2). An L-labeled node is the
// fact L(id, p1, …, pn) and an L-labeled edge the fact L(id, from, to,
// f1, …, fm), property columns in catalog order, Missing where the construct
// does not carry the property. No tuple is encoded from a construct: a
// relation is a Rows, whose Cell reads a construct in place — columns.cell
// a frozen row, listCell a construct held as its identifiers and property
// list — and WalkDerived is the only decoder, Present the only reading of
// Missing; every loader, flusher and delta maintainer goes through them.

// Missing is the placeholder stored at a property position when a node or
// edge does not carry that property. It is an identifier outside the constant
// domain, so it never compares equal to real data; decoding skips it.
var Missing = value.IDV("⊥")

// Present reports whether a property column of a fact holds a value: neither
// Missing nor the zero Value of a column the engine left unbound.
func Present(v value.Value) bool { return !v.IsZero() && !value.Identical(v, Missing) }

// Rows is an extracted relation: the vadalog.Rows a sealed relation reads.
// A row is one construct, read in place and never copied into a tuple. A
// non-negative id is a row of one frozen graph's columns; a negative id ^i
// names list row i, a construct held as its identifier cells and property
// list — an overlay's or a Diff's row, an instance entity or edge, a copy of
// a reused scan row — read by key under the relation's layout. A list is
// referenced, so none may change while a relation reading it is in use.
// Rows are distinct because their OIDs are.
type Rows struct {
	nid    int      // identifier cells: 1 for a node relation, 3 for an edge one
	layout []string // the property columns, in catalog order
	ids    []int32
	cols   *columns      // the reading of the frozen rows; nil when there are none
	oids   []pg.OID      // list row i's identifier cells are oids[i*nid:][:nid]
	props  []pg.PropList // and its properties props[i]
}

// NodeRows returns an empty relation of nodes under the label's layout.
func (c *Catalog) NodeRows(label string) *Rows { return &Rows{nid: 1, layout: c.NodeProps[label]} }

// EdgeRows returns an empty relation of edges under the label's layout.
func (c *Catalog) EdgeRows(label string) *Rows { return &Rows{nid: 3, layout: c.EdgeProps[label]} }

// Add appends a construct as a list row: its identifiers (a node's OID; an
// edge's OID, source and target) and its property list, which the relation
// references.
func (r *Rows) Add(props pg.PropList, ids ...pg.OID) {
	r.ids = append(r.ids, ^int32(len(r.props)))
	r.oids = append(r.oids, ids...)
	r.props = append(r.props, props)
}

// Arity is the width of the relation's facts.
func (r *Rows) Arity() int { return r.nid + len(r.layout) }

// Len and Cell make Rows a vadalog.Rows.
func (r *Rows) Len() int { return len(r.ids) }

func (r *Rows) Cell(pos, col int) value.Value {
	id := r.ids[pos]
	if id >= 0 {
		return r.cols.cell(id, col)
	}
	i := int(^id)
	return listCell(r.oids[i*r.nid:][:r.nid], r.props[i], r.layout, col)
}

// listCell reads cell col of a construct held as its identifier cells and
// property list under a layout.
func listCell(ids []pg.OID, props pg.PropList, layout []string, col int) value.Value {
	if col < len(ids) {
		return value.IntV(int64(ids[col]))
	}
	if v, ok := props.Get(layout[col-len(ids)]); ok {
		return v
	}
	return Missing
}

// addRow appends row id of c, translating it when r reads other columns.
func (r *Rows) addRow(c *columns, id int32) {
	if r.cols == nil {
		r.cols = c
	}
	if r.cols != c {
		r.addCells(func(col int) value.Value { return c.cell(id, col) })
		return
	}
	r.ids = append(r.ids, id)
}

// addCells appends a construct read under another layout — only ever an
// edge of a label that also names nodes with the same arity — as a list
// row laid out under the relation's own identifier and property columns.
func (r *Rows) addCells(cell func(col int) value.Value) {
	ids := make([]pg.OID, r.nid)
	for col := range ids {
		ids[col] = pg.OID(cell(col).I)
	}
	var props pg.PropList
	for i, key := range r.layout {
		if v := cell(r.nid + i); !value.Identical(v, Missing) {
			props = append(props, pg.Prop{Key: key, Val: v})
		}
	}
	r.Add(props, ids...)
}

// oid returns the OID of the construct an id names.
func (r *Rows) oid(id int32) int64 {
	if id < 0 {
		return int64(r.oids[int(^id)*r.nid])
	}
	return int64(r.cols.oids[id])
}

// columns is one label's reading of a frozen graph's node or edge columns:
// cell 0 is the OID, an edge's cells 1 and 2 its endpoints, and layout column
// i the row's value under key symbol layout[i] — found by symbol, not by
// position, since a bulk-loaded snapshot does not store keys in name order —
// or Missing. hint[i] is where that key sat in the label's first row, which
// in uniform rows is where it sits in all of them.
type columns struct {
	ids      int // identifier cells: 1 for a node, 3 for an edge
	oids     []pg.OID
	from, to []pg.OID
	off      []int32
	keys     []symtab.Sym
	vals     []value.Value
	layout   []symtab.Sym // symtab.None for a key the graph does not hold
	hint     []int32
}

// newColumns reads f's node (or edge) columns under a label's layout, taking
// the hints from the label's first row.
func newColumns(f *pg.Frozen, edge bool, layout []string, first int32) *columns {
	all := f.Columns()
	c := &columns{ids: 1, oids: all.NodeOIDs, off: all.NodePropOff, keys: all.NodePropKeys, vals: all.NodePropVals,
		layout: make([]symtab.Sym, len(layout)), hint: make([]int32, len(layout))}
	if edge {
		c.ids, c.oids, c.from, c.to = 3, all.EdgeOIDs, all.EdgeFrom, all.EdgeTo
		c.off, c.keys, c.vals = all.EdgePropOff, all.EdgePropKeys, all.EdgePropVals
	}
	lo, hi := c.off[first], c.off[first+1]
	for i, key := range layout {
		c.layout[i], _ = f.Symbols().Lookup(key)
		if p := slices.Index(c.keys[lo:hi], c.layout[i]); p >= 0 {
			c.hint[i] = int32(p)
		}
	}
	return c
}

func (c *columns) cell(row int32, col int) value.Value {
	switch {
	case col == 0:
		return value.IntV(int64(c.oids[row]))
	case col >= c.ids:
		sym, lo, hi := c.layout[col-c.ids], c.off[row], c.off[row+1]
		if p := lo + c.hint[col-c.ids]; p < hi && c.keys[p] == sym {
			return c.vals[p]
		}
		for p := lo; p < hi; p++ {
			if c.keys[p] == sym {
				return c.vals[p]
			}
		}
		return Missing
	case col == 1:
		return value.IntV(int64(c.from[row]))
	default:
		return value.IntV(int64(c.to[row]))
	}
}

// propTerms is the encoder at the level of rule atoms: it lays a pattern
// atom's property bindings out in the label's column order. fill supplies the
// term of each column the atom does not bind — a fresh variable in bodies,
// Missing in heads — and is called once per column, bound or not. It returns
// the first bound property the layout lacks, or "".
func propTerms(cols []vadalog.Term, layout []string, binds []PropBinding, fill func() vadalog.Term) string {
	for i := range cols {
		cols[i] = fill()
	}
	for _, pb := range binds {
		i, ok := slices.BinarySearch(layout, pb.Name) // layouts are kept sorted
		if !ok {
			return pb.Name
		}
		if pb.IsConst {
			cols[i] = vadalog.Const{Value: pb.Const}
		} else {
			cols[i] = vadalog.Var{Name: pb.Var}
		}
	}
	return ""
}

func missingTerm() vadalog.Term { return vadalog.Const{Value: Missing} }

// DerivedKind names the output view a derived fact belongs to.
type DerivedKind int

const (
	HeadNode   DerivedKind = iota // fact of a head node label
	UpdateNode                    // mtv_set_<Label> fact: in-place update of an existing node
	HeadEdge                      // fact of a head edge label
)

// DerivedFact is one fact of a saturated database, decoded under the
// catalog: the identifier terms as the engine derived them (OIDs, Skolem
// terms or nulls — resolving them is the sink's business) and the present
// properties in layout order. From and To are set for HeadEdge only.
type DerivedFact struct {
	Kind         DerivedKind
	Label        string
	ID, From, To value.Value
	Props        pg.PropList
}

// WalkDerived decodes the derived facts of a reasoning result for a sink: the
// head node labels in sorted order, then the update predicates in sorted
// order, then the head edge labels in sorted order, each relation in value
// order. The DerivedFact and its Props are reused between visits; a sink that
// keeps them copies them.
func WalkDerived(db *vadalog.Database, tr *Translation, cat *Catalog, visit func(*DerivedFact) error) error {
	var d DerivedFact
	walk := func(kind DerivedKind, pred, label string, layout []string) error {
		d.Kind, d.Label = kind, label
		ids := 1
		if kind == HeadEdge {
			ids = 3
		}
		for _, f := range db.SortedFacts(pred) {
			d.ID = f[0]
			if kind == HeadEdge {
				d.From, d.To = f[1], f[2]
			}
			d.Props = d.Props[:0]
			for i, p := range layout {
				if v := f[ids+i]; Present(v) {
					d.Props = append(d.Props, pg.Prop{Key: p, Val: v})
				}
			}
			if err := visit(&d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, l := range sortedset.Keys(tr.HeadNodeLabels) {
		if err := walk(HeadNode, l, l, cat.NodeProps[l]); err != nil {
			return err
		}
	}
	for _, pred := range sortedset.Keys(tr.UpdateNodePreds) {
		l := tr.UpdateNodePreds[pred]
		if err := walk(UpdateNode, pred, l, cat.NodeProps[l]); err != nil {
			return err
		}
	}
	for _, l := range sortedset.Keys(tr.HeadEdgeLabels) {
		if err := walk(HeadEdge, l, l, cat.EdgeProps[l]); err != nil {
			return err
		}
	}
	return nil
}
