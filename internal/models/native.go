package models

import (
	"fmt"
	"sort"

	"repro/internal/supermodel"
)

// Native Go twin of the PG mapping. It computes the same typed view that
// ReadPGSchema extracts from an SSST-translated dictionary; the tests hold the
// two paths to exact agreement. Its relational sibling, NativeToRelational,
// is a test oracle only (native_relational_test.go).

func toPropView(a *supermodel.Attribute) PropView {
	pv := PropView{
		Name:          a.Name,
		DataType:      string(a.Type),
		IsOpt:         a.IsOpt,
		IsID:          a.IsID,
		IsIntensional: a.IsIntensional,
	}
	for _, m := range a.Modifiers {
		if _, ok := m.(supermodel.UniqueModifier); ok {
			pv.Unique = true
		}
	}
	return pv
}

func sortProps(ps []PropView) []PropView {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// labelSet returns the multi-label tag set of a node: its own type plus
// every ancestor type, sorted.
func labelSet(s *supermodel.Schema, node string) []string {
	labels := append([]string{node}, s.Ancestors(node)...)
	sort.Strings(labels)
	return labels
}

func descOrSelf(s *supermodel.Schema, node string) []string {
	out := append([]string{node}, s.Descendants(node)...)
	sort.Strings(out)
	return out
}

// NativeToPG computes the property-graph schema view the SSST PG mapping
// produces, without going through MetaLog.
func NativeToPG(s *supermodel.Schema, strategy string) (*PGSchemaView, error) {
	switch strategy {
	case "", "multi-label":
		return nativePGMultiLabel(s), nil
	case "child-edges":
		return nativePGChildEdges(s), nil
	default:
		return nil, fmt.Errorf("models: unknown PG strategy %q", strategy)
	}
}

func nativePGMultiLabel(s *supermodel.Schema) *PGSchemaView {
	v := &PGSchemaView{}
	for _, n := range s.Nodes {
		var props []PropView
		for _, a := range s.EffectiveAttributes(n.Name) {
			props = append(props, toPropView(a))
		}
		v.Nodes = append(v.Nodes, PGNodeView{
			Labels:        labelSet(s, n.Name),
			Properties:    sortProps(props),
			IsIntensional: n.IsIntensional,
		})
	}
	for _, e := range s.Edges {
		var props []PropView
		for _, a := range e.Attributes {
			pv := toPropView(a)
			pv.Unique = false // edge-attribute modifiers are not part of the PG model
			props = append(props, pv)
		}
		props = sortProps(props)
		// Outgoing inheritance: one relationship per descendant-or-self of
		// the source (the self case is the original edge).
		for _, c := range descOrSelf(s, e.From) {
			v.Rels = append(v.Rels, PGRelView{
				Name:          e.Name,
				FromLabels:    labelSet(s, c),
				ToLabels:      labelSet(s, e.To),
				Properties:    props,
				IsIntensional: e.IsIntensional,
			})
		}
		// Incoming inheritance: proper descendants of the target.
		for _, c := range s.Descendants(e.To) {
			v.Rels = append(v.Rels, PGRelView{
				Name:          e.Name,
				FromLabels:    labelSet(s, e.From),
				ToLabels:      labelSet(s, c),
				Properties:    props,
				IsIntensional: e.IsIntensional,
			})
		}
	}
	sortPGView(v)
	return v
}

func nativePGChildEdges(s *supermodel.Schema) *PGSchemaView {
	v := &PGSchemaView{}
	for _, n := range s.Nodes {
		var props []PropView
		for _, a := range n.Attributes {
			props = append(props, toPropView(a))
		}
		v.Nodes = append(v.Nodes, PGNodeView{
			Labels:        []string{n.Name},
			Properties:    sortProps(props),
			IsIntensional: n.IsIntensional,
		})
	}
	for _, e := range s.Edges {
		var props []PropView
		for _, a := range e.Attributes {
			pv := toPropView(a)
			pv.Unique = false
			props = append(props, pv)
		}
		v.Rels = append(v.Rels, PGRelView{
			Name:          e.Name,
			FromLabels:    []string{e.From},
			ToLabels:      []string{e.To},
			Properties:    sortProps(props),
			IsIntensional: e.IsIntensional,
		})
	}
	for _, g := range s.Generalizations {
		for _, c := range g.Children {
			v.Rels = append(v.Rels, PGRelView{
				Name:       "IS_A_" + c + "_" + g.Parent,
				FromLabels: []string{c},
				ToLabels:   []string{g.Parent},
			})
		}
	}
	sortPGView(v)
	return v
}

func sortPGView(v *PGSchemaView) {
	sort.Slice(v.Nodes, func(i, j int) bool {
		return fmt.Sprint(v.Nodes[i].Labels) < fmt.Sprint(v.Nodes[j].Labels)
	})
	sort.Slice(v.Rels, func(i, j int) bool {
		if v.Rels[i].Name != v.Rels[j].Name {
			return v.Rels[i].Name < v.Rels[j].Name
		}
		if a, b := fmt.Sprint(v.Rels[i].FromLabels), fmt.Sprint(v.Rels[j].FromLabels); a != b {
			return a < b
		}
		return fmt.Sprint(v.Rels[i].ToLabels) < fmt.Sprint(v.Rels[j].ToLabels)
	})
}
