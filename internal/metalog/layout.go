package metalog

import (
	"slices"

	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// The fact layout: the one place where a graph construct becomes a tuple and
// a derived tuple becomes a construct again (translation step (1) of Section
// 4; the input and output views of Algorithm 2). An L-labeled node is the
// fact L(id, p1, …, pn) and an L-labeled edge the fact L(id, from, to,
// f1, …, fm), property columns in catalog order, Missing where the construct
// does not carry the property. NodeFact and EdgeFact are the only encoders,
// WalkDerived the only decoder, Present the only reading of Missing; every
// loader, flusher and delta maintainer goes through them.

// Missing is the placeholder stored at a property position when a node or
// edge does not carry that property. It is an identifier outside the constant
// domain, so it never compares equal to real data; decoding skips it.
var Missing = value.IDV("⊥")

// Present reports whether a property column of a fact holds a value: neither
// Missing nor the zero Value of a column the engine left unbound.
func Present(v value.Value) bool { return !v.IsZero() && !value.Equal(v, Missing) }

// NodeFact encodes a node-shaped construct under the label's layout.
func (c *Catalog) NodeFact(label string, id pg.OID, props map[string]value.Value) vadalog.Fact {
	return encode(c.NodeProps[label], pg.Props(props).Get, id)
}

// EdgeFact encodes an edge-shaped construct under the label's layout.
func (c *Catalog) EdgeFact(label string, id, from, to pg.OID, props map[string]value.Value) vadalog.Fact {
	return encode(c.EdgeProps[label], pg.Props(props).Get, id, from, to)
}

// encode lays a construct out as a fact: its identifiers, then the layout's
// columns, each read through prop — a property map's Get or a scanned row's,
// always by key — and Missing where the construct has no such property.
func encode(layout []string, prop func(key string) (value.Value, bool), ids ...pg.OID) vadalog.Fact {
	f := make(vadalog.Fact, len(ids)+len(layout))
	for i, id := range ids {
		f[i] = value.IntV(int64(id))
	}
	for i, p := range layout {
		if v, ok := prop(p); ok {
			f[len(ids)+i] = v
		} else {
			f[len(ids)+i] = Missing
		}
	}
	return f
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

// PropValue is one present property of a decoded fact.
type PropValue struct {
	Name  string
	Value value.Value
}

// DerivedFact is one fact of a saturated database, decoded under the
// catalog: the identifier terms as the engine derived them (OIDs, Skolem
// terms or nulls — resolving them is the sink's business) and the present
// properties in layout order. From and To are set for HeadEdge only.
type DerivedFact struct {
	Kind         DerivedKind
	Label        string
	ID, From, To value.Value
	Props        []PropValue
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
					d.Props = append(d.Props, PropValue{p, v})
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
