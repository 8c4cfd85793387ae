package models

import (
	"sort"

	"repro/internal/supermodel"
)

// The native Go twin of the relational mapping: the oracle TestFigure8Translation
// holds the MetaLog pipeline to.

// effectiveIDFields returns the identifying attributes of the node,
// including inherited ones, as sorted field names.
func effectiveIDFields(s *supermodel.Schema, node string) []string {
	var out []string
	for _, a := range s.EffectiveIDAttributes(node) {
		out = append(out, a.Name)
	}
	sort.Strings(out)
	return out
}

// isJunction reports whether the relational mapping turns the edge into a
// junction relation: every intensional edge, and every extensional
// many-to-many edge.
func isJunction(e *supermodel.Edge) bool {
	return e.IsIntensional || e.IsManyToMany()
}

// NativeToRelational computes the relational schema view the SSST
// relational mapping (table-per-class strategy) produces.
func NativeToRelational(s *supermodel.Schema) *RelationalSchemaView {
	v := &RelationalSchemaView{}

	// One relation per node: own attributes, inherited identifiers, and the
	// attributes of functional edges absorbed into the relation that holds
	// the foreign key.
	for _, n := range s.Nodes {
		rv := RelationView{Name: n.Name, IsIntensional: n.IsIntensional}
		for _, a := range n.Attributes {
			pv := toPropView(a)
			pv.Unique = false // the relational mapping omits modifiers (Section 5.3)
			rv.Fields = append(rv.Fields, pv)
		}
		for _, anc := range s.Ancestors(n.Name) {
			for _, a := range s.Node(anc).Attributes {
				if a.IsID {
					pv := toPropView(a)
					pv.IsOpt = false
					pv.Unique = false
					pv.IsIntensional = false
					rv.Fields = append(rv.Fields, pv)
				}
			}
		}
		for _, e := range s.Edges {
			if isJunction(e) {
				continue
			}
			var holder string
			switch {
			case e.FromCard.Max1:
				holder = e.From
			case e.ToCard.Max1:
				holder = e.To
			}
			if holder != n.Name {
				continue
			}
			for _, a := range e.Attributes {
				pv := toPropView(a)
				pv.IsID = false
				pv.Unique = false
				pv.IsIntensional = false
				rv.Fields = append(rv.Fields, pv)
			}
		}
		rv.Fields = sortProps(rv.Fields)

		// IS-A foreign keys to every direct parent.
		for _, g := range s.Generalizations {
			for _, c := range g.Children {
				if c != n.Name {
					continue
				}
				rv.ForeignKeys = append(rv.ForeignKeys, FKView{
					Name:           "FK_ISA_" + c + "_" + g.Parent,
					TargetRelation: g.Parent,
					SourceFields:   effectiveIDFields(s, g.Parent),
				})
			}
		}
		// Functional-edge foreign keys held by this relation.
		for _, e := range s.Edges {
			if isJunction(e) {
				continue
			}
			switch {
			case e.FromCard.Max1 && e.From == n.Name:
				rv.ForeignKeys = append(rv.ForeignKeys, FKView{
					Name:           e.Name,
					TargetRelation: e.To,
					SourceFields:   effectiveIDFields(s, e.To),
				})
			case !e.FromCard.Max1 && e.ToCard.Max1 && e.To == n.Name:
				rv.ForeignKeys = append(rv.ForeignKeys, FKView{
					Name:           e.Name,
					TargetRelation: e.From,
					SourceFields:   effectiveIDFields(s, e.From),
				})
			}
		}
		sort.Slice(rv.ForeignKeys, func(i, j int) bool { return rv.ForeignKeys[i].Name < rv.ForeignKeys[j].Name })
		v.Relations = append(v.Relations, rv)
	}

	// Junction relations for intensional and many-to-many edges.
	for _, e := range s.Edges {
		if !isJunction(e) {
			continue
		}
		rv := RelationView{Name: e.Name, IsIntensional: e.IsIntensional}
		for _, a := range e.Attributes {
			pv := toPropView(a)
			pv.IsID = false
			pv.Unique = false
			rv.Fields = append(rv.Fields, pv)
		}
		rv.Fields = sortProps(rv.Fields)
		rv.ForeignKeys = []FKView{
			{Name: "FK_" + e.Name + "_SRC", TargetRelation: e.From, SourceFields: effectiveIDFields(s, e.From)},
			{Name: "FK_" + e.Name + "_DST", TargetRelation: e.To, SourceFields: effectiveIDFields(s, e.To)},
		}
		sort.Slice(rv.ForeignKeys, func(i, j int) bool { return rv.ForeignKeys[i].Name < rv.ForeignKeys[j].Name })
		v.Relations = append(v.Relations, rv)
	}
	sort.Slice(v.Relations, func(i, j int) bool { return v.Relations[i].Name < v.Relations[j].Name })
	return v
}
