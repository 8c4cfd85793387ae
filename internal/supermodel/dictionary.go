package supermodel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/value"
)

// Graph dictionaries (Section 2.2): KGModel stores super-schemas and schemas
// into property graphs associated to the super-model and to each model. This
// file implements the super-model dictionary encoding of super-schemas —
// the representation the MetaLog translation mappings of Section 5 operate
// on — together with the fixed meta-model and super-model dictionaries of
// Figures 2 and 3.
//
// Encoding of a super-schema (all constructs carry schemaOID):
//
//	(n:SM_Node            {schemaOID, isIntensional})
//	(t:SM_Type            {schemaOID, name})
//	(a:SM_Attribute       {schemaOID, name, dataType, isOpt, isId})
//	(e:SM_Edge            {schemaOID, isIntensional, isOpt1, isFun1, isOpt2, isFun2})
//	(g:SM_Generalization  {schemaOID, name, isTotal, isDisjoint})
//	(m:<ModifierKind>     {schemaOID, payload})
//
//	SM_HAS_NODE_TYPE      n -> t        SM_HAS_EDGE_TYPE      e -> t
//	SM_HAS_NODE_PROPERTY  n -> a        SM_HAS_EDGE_PROPERTY  e -> a
//	SM_FROM               e -> n        SM_TO                 e -> n
//	SM_PARENT             g -> n        SM_CHILD              g -> n
//	SM_HAS_MODIFIER       a -> m
//
// The isOpt/isFun flags encode cardinalities as in the paper: side 1 is the
// source participation (isFun1 = a source instance has at most one such
// edge), side 2 the target participation.

// Dictionary labels.
const (
	LNode           = "SM_Node"
	LType           = "SM_Type"
	LAttribute      = "SM_Attribute"
	LEdge           = "SM_Edge"
	LGeneralization = "SM_Generalization"

	LHasNodeType = "SM_HAS_NODE_TYPE"
	LHasEdgeType = "SM_HAS_EDGE_TYPE"
	LHasNodeProp = "SM_HAS_NODE_PROPERTY"
	LHasEdgeProp = "SM_HAS_EDGE_PROPERTY"
	LFrom        = "SM_FROM"
	LTo          = "SM_TO"
	LParent      = "SM_PARENT"
	LChild       = "SM_CHILD"
	LHasModifier = "SM_HAS_MODIFIER"
)

// NewDictionary returns an empty graph dictionary.
func NewDictionary() *pg.Graph { return pg.New() }

// ToDictionary appends the super-schema to a graph dictionary, keyed by the
// schema's OID. It returns an error if the dictionary already holds a schema
// with the same OID.
func ToDictionary(s *Schema, g *pg.Graph) error {
	for _, n := range g.NodesByLabel(LType) {
		if so, ok := n.Props["schemaOID"]; ok && so.I == s.OID {
			return fmt.Errorf("supermodel: dictionary already contains schema with OID %d", s.OID)
		}
	}
	soid := value.IntV(s.OID)

	addType := func(name string) pg.OID {
		t := g.AddNode([]string{LType}, pg.Props{"schemaOID": soid, "name": value.Str(name)})
		return t.ID
	}
	addAttr := func(owner pg.OID, propLabel string, a *Attribute) {
		an := g.AddNode([]string{LAttribute}, pg.Props{
			"schemaOID": soid,
			"name":      value.Str(a.Name),
			"dataType":  value.Str(string(a.Type)),
			"isOpt":     value.BoolV(a.IsOpt),
			"isId":      value.BoolV(a.IsID),
		})
		g.MustAddEdge(owner, an.ID, propLabel, pg.Props{"isIntensional": value.BoolV(a.IsIntensional)})
		for _, m := range a.Modifiers {
			mn := g.AddNode([]string{m.Kind()}, pg.Props{
				"schemaOID": soid,
				"payload":   value.Str(m.Describe()),
			})
			g.MustAddEdge(an.ID, mn.ID, LHasModifier, nil)
		}
	}

	nodeOID := map[string]pg.OID{}
	for _, n := range s.Nodes {
		nn := g.AddNode([]string{LNode}, pg.Props{
			"schemaOID":     soid,
			"isIntensional": value.BoolV(n.IsIntensional),
		})
		nodeOID[n.Name] = nn.ID
		g.MustAddEdge(nn.ID, addType(n.Name), LHasNodeType, nil)
		for _, a := range n.Attributes {
			addAttr(nn.ID, LHasNodeProp, a)
		}
	}
	for _, e := range s.Edges {
		en := g.AddNode([]string{LEdge}, pg.Props{
			"schemaOID":     soid,
			"isIntensional": value.BoolV(e.IsIntensional),
			"isOpt1":        value.BoolV(e.FromCard.Min == 0),
			"isFun1":        value.BoolV(e.FromCard.Max1),
			"isOpt2":        value.BoolV(e.ToCard.Min == 0),
			"isFun2":        value.BoolV(e.ToCard.Max1),
		})
		g.MustAddEdge(en.ID, addType(e.Name), LHasEdgeType, nil)
		g.MustAddEdge(en.ID, nodeOID[e.From], LFrom, nil)
		g.MustAddEdge(en.ID, nodeOID[e.To], LTo, nil)
		for _, a := range e.Attributes {
			addAttr(en.ID, LHasEdgeProp, a)
		}
	}
	for _, gen := range s.Generalizations {
		gn := g.AddNode([]string{LGeneralization}, pg.Props{
			"schemaOID":  soid,
			"name":       value.Str(gen.Name),
			"isTotal":    value.BoolV(gen.IsTotal),
			"isDisjoint": value.BoolV(gen.IsDisjoint),
		})
		g.MustAddEdge(gn.ID, nodeOID[gen.Parent], LParent, nil)
		for _, c := range gen.Children {
			g.MustAddEdge(gn.ID, nodeOID[c], LChild, nil)
		}
	}
	return nil
}

// hasSchemaOID reports whether the construct belongs to the given schema.
func hasSchemaOID(n *pg.Node, oid int64) bool {
	so, ok := n.Props["schemaOID"]
	return ok && so.K == value.Int && so.I == oid
}

// FromDictionary reconstructs a super-schema from a graph dictionary.
func FromDictionary(g *pg.Graph, schemaOID int64, name string) (*Schema, error) {
	s := NewSchema(name, schemaOID)

	typeName := func(owner pg.OID, typeEdgeLabel string) (string, error) {
		for _, e := range g.Out(owner) {
			if e.Label == typeEdgeLabel {
				t := g.Node(e.To)
				if nm, ok := t.Props["name"]; ok {
					return nm.S, nil
				}
			}
		}
		return "", fmt.Errorf("supermodel: construct %d has no %s", owner, typeEdgeLabel)
	}
	readAttrs := func(owner pg.OID, propEdgeLabel string) ([]*Attribute, error) {
		var out []*Attribute
		for _, e := range g.Out(owner) {
			if e.Label != propEdgeLabel {
				continue
			}
			an := g.Node(e.To)
			a := &Attribute{
				Name:          an.Props["name"].S,
				Type:          DataType(an.Props["dataType"].S),
				IsOpt:         an.Props["isOpt"].B,
				IsID:          an.Props["isId"].B,
				IsIntensional: e.Props["isIntensional"].B,
			}
			for _, me := range g.Out(an.ID) {
				if me.Label != LHasModifier {
					continue
				}
				mn := g.Node(me.To)
				m, err := parseModifier(mn.Label(), mn.Props["payload"].S)
				if err != nil {
					return nil, err
				}
				a.Modifiers = append(a.Modifiers, m)
			}
			out = append(out, a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out, nil
	}

	nodeName := map[pg.OID]string{}
	for _, n := range g.NodesByLabel(LNode) {
		if !hasSchemaOID(n, schemaOID) {
			continue
		}
		tn, err := typeName(n.ID, LHasNodeType)
		if err != nil {
			return nil, err
		}
		nodeName[n.ID] = tn
		attrs, err := readAttrs(n.ID, LHasNodeProp)
		if err != nil {
			return nil, err
		}
		if _, err := s.AddNode(tn, n.Props["isIntensional"].B, attrs...); err != nil {
			return nil, err
		}
	}
	for _, en := range g.NodesByLabel(LEdge) {
		if !hasSchemaOID(en, schemaOID) {
			continue
		}
		tn, err := typeName(en.ID, LHasEdgeType)
		if err != nil {
			return nil, err
		}
		var from, to string
		for _, e := range g.Out(en.ID) {
			switch e.Label {
			case LFrom:
				from = nodeName[e.To]
			case LTo:
				to = nodeName[e.To]
			}
		}
		if from == "" || to == "" {
			return nil, fmt.Errorf("supermodel: edge %s lacks SM_FROM or SM_TO", tn)
		}
		attrs, err := readAttrs(en.ID, LHasEdgeProp)
		if err != nil {
			return nil, err
		}
		fromCard := Cardinality{Min: 1, Max1: en.Props["isFun1"].B}
		if en.Props["isOpt1"].B {
			fromCard.Min = 0
		}
		toCard := Cardinality{Min: 1, Max1: en.Props["isFun2"].B}
		if en.Props["isOpt2"].B {
			toCard.Min = 0
		}
		if _, err := s.AddEdge(tn, en.Props["isIntensional"].B, from, to, fromCard, toCard, attrs...); err != nil {
			return nil, err
		}
	}
	for _, gn := range g.NodesByLabel(LGeneralization) {
		if !hasSchemaOID(gn, schemaOID) {
			continue
		}
		var parent string
		var children []string
		for _, e := range g.Out(gn.ID) {
			switch e.Label {
			case LParent:
				parent = nodeName[e.To]
			case LChild:
				children = append(children, nodeName[e.To])
			}
		}
		sort.Strings(children)
		gname := ""
		if nm, ok := gn.Props["name"]; ok {
			gname = nm.S
		}
		if _, err := s.AddGeneralization(gname, parent, children, gn.Props["isTotal"].B, gn.Props["isDisjoint"].B); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func parseModifier(kind, payload string) (Modifier, error) {
	switch kind {
	case "SM_UniqueAttributeModifier":
		return UniqueModifier{}, nil
	case "SM_EnumAttributeModifier":
		inner := strings.TrimSuffix(strings.TrimPrefix(payload, "enum("), ")")
		var vals []string
		if inner != "" {
			vals = strings.Split(inner, ",")
		}
		return EnumModifier{Values: vals}, nil
	case "SM_RangeAttributeModifier":
		var lo, hi float64
		if _, err := fmt.Sscanf(payload, "range(%g,%g)", &lo, &hi); err != nil {
			return nil, fmt.Errorf("supermodel: bad range modifier payload %q", payload)
		}
		return RangeModifier{Min: lo, Max: hi}, nil
	case "SM_DefaultAttributeModifier":
		inner := strings.TrimSuffix(strings.TrimPrefix(payload, "default("), ")")
		return DefaultModifier{Value: inner}, nil
	default:
		return nil, fmt.Errorf("supermodel: unknown modifier kind %q", kind)
	}
}

// SchemaInfo summarizes one schema stored in a dictionary.
type SchemaInfo struct {
	OID             int64
	Nodes           int
	Edges           int
	Generalizations int
}

// ListSchemas inventories the schemas a dictionary holds, sorted by OID —
// the paper's dictionaries store many schemas side by side, selected by
// schemaOID (Example 5.1).
func ListSchemas(g pg.View) []SchemaInfo {
	byOID := map[int64]*SchemaInfo{}
	g.ScanNodes(func(r *pg.NodeRow) bool {
		so, ok := r.Props.Get("schemaOID")
		if !ok || so.K != value.Int {
			return true
		}
		for _, l := range r.Labels {
			switch l {
			case LNode:
				schemaInfo(byOID, so.I).Nodes++
			case LEdge:
				schemaInfo(byOID, so.I).Edges++
			case LGeneralization:
				schemaInfo(byOID, so.I).Generalizations++
			}
		}
		return true
	})
	oids := make([]int64, 0, len(byOID))
	for oid := range byOID {
		oids = append(oids, oid)
	}
	sortedset.Sort(oids)
	out := make([]SchemaInfo, 0, len(oids))
	for _, oid := range oids {
		out = append(out, *byOID[oid])
	}
	return out
}

// schemaInfo returns the inventory entry of a schema OID, made on first use.
func schemaInfo(byOID map[int64]*SchemaInfo, oid int64) *SchemaInfo {
	info := byOID[oid]
	if info == nil {
		info = &SchemaInfo{OID: oid}
		byOID[oid] = info
	}
	return info
}

// MetaModelDictionary builds the fixed meta-model graph of Figure 2: the
// foundational meta-constructs MM_Entity, MM_Link and MM_Property, with
// their connecting links and cardinalities.
func MetaModelDictionary() *pg.Graph {
	g := pg.New()
	entity := g.AddNode([]string{"MM_Entity"}, pg.Props{
		"name":       value.Str("MM_Entity"),
		"attributes": value.Str("name"),
	})
	link := g.AddNode([]string{"MM_Link"}, pg.Props{
		"name":       value.Str("MM_Link"),
		"attributes": value.Str("name"),
	})
	prop := g.AddNode([]string{"MM_Property"}, pg.Props{
		"name":       value.Str("MM_Property"),
		"attributes": value.Str("name,type"),
	})
	g.MustAddEdge(entity.ID, prop.ID, "MM_HAS_PROPERTY", pg.Props{"card": value.Str("0..N")})
	g.MustAddEdge(link.ID, prop.ID, "MM_HAS_PROPERTY", pg.Props{"card": value.Str("0..N")})
	g.MustAddEdge(link.ID, entity.ID, "MM_SOURCE", pg.Props{"card": value.Str("1..1")})
	g.MustAddEdge(link.ID, entity.ID, "MM_TARGET", pg.Props{"card": value.Str("1..1")})
	return g
}

// SuperConstructSpec describes one super-construct of the super-model
// dictionary (Figure 3).
type SuperConstructSpec struct {
	Name        string
	MetaKind    string // MM_Entity or MM_Link
	Attributes  []string
	Source      string // for links: the source super-construct
	Target      string // for links: the target super-construct
	Specializes string // for modifier specializations
}

// SuperModelConstructs returns the contents of the super-model dictionary of
// Figure 3: every super-construct with its meta-kind, attributes and, for
// link constructs, endpoints.
func SuperModelConstructs() []SuperConstructSpec {
	return []SuperConstructSpec{
		{Name: "SM_Node", MetaKind: "MM_Entity", Attributes: []string{"isIntensional"}},
		{Name: "SM_Edge", MetaKind: "MM_Entity", Attributes: []string{"isIntensional", "isOpt1", "isFun1", "isOpt2", "isFun2"}},
		{Name: "SM_Type", MetaKind: "MM_Entity", Attributes: []string{"name"}},
		{Name: "SM_Attribute", MetaKind: "MM_Entity", Attributes: []string{"name", "dataType", "isOpt", "isId"}},
		{Name: "SM_Generalization", MetaKind: "MM_Entity", Attributes: []string{"isTotal", "isDisjoint"}},
		{Name: "SM_AttributeModifier", MetaKind: "MM_Entity"},
		{Name: "SM_UniqueAttributeModifier", MetaKind: "MM_Entity", Specializes: "SM_AttributeModifier"},
		{Name: "SM_EnumAttributeModifier", MetaKind: "MM_Entity", Attributes: []string{"values"}, Specializes: "SM_AttributeModifier"},
		{Name: "SM_RangeAttributeModifier", MetaKind: "MM_Entity", Attributes: []string{"min", "max"}, Specializes: "SM_AttributeModifier"},
		{Name: "SM_DefaultAttributeModifier", MetaKind: "MM_Entity", Attributes: []string{"value"}, Specializes: "SM_AttributeModifier"},
		{Name: "SM_HAS_NODE_TYPE", MetaKind: "MM_Link", Source: "SM_Node", Target: "SM_Type"},
		{Name: "SM_HAS_EDGE_TYPE", MetaKind: "MM_Link", Source: "SM_Edge", Target: "SM_Type"},
		{Name: "SM_HAS_NODE_PROPERTY", MetaKind: "MM_Link", Source: "SM_Node", Target: "SM_Attribute"},
		{Name: "SM_HAS_EDGE_PROPERTY", MetaKind: "MM_Link", Source: "SM_Edge", Target: "SM_Attribute"},
		{Name: "SM_FROM", MetaKind: "MM_Link", Source: "SM_Edge", Target: "SM_Node"},
		{Name: "SM_TO", MetaKind: "MM_Link", Source: "SM_Edge", Target: "SM_Node"},
		{Name: "SM_PARENT", MetaKind: "MM_Link", Source: "SM_Generalization", Target: "SM_Node"},
		{Name: "SM_CHILD", MetaKind: "MM_Link", Source: "SM_Generalization", Target: "SM_Node"},
		{Name: "SM_HAS_MODIFIER", MetaKind: "MM_Link", Source: "SM_Attribute", Target: "SM_AttributeModifier"},
	}
}

// SuperModelDictionary builds the super-model dictionary of Figure 3 as an
// instance of the meta-model: one MM_Entity node per entity super-construct
// (with MM_Property nodes for its attributes) and one MM_Link edge per link
// super-construct.
func SuperModelDictionary() *pg.Graph {
	g := pg.New()
	byName := map[string]pg.OID{}
	specs := SuperModelConstructs()
	for _, sc := range specs {
		if sc.MetaKind != "MM_Entity" {
			continue
		}
		n := g.AddNode([]string{"MM_Entity"}, pg.Props{"name": value.Str(sc.Name)})
		byName[sc.Name] = n.ID
		for _, a := range sc.Attributes {
			p := g.AddNode([]string{"MM_Property"}, pg.Props{"name": value.Str(a)})
			g.MustAddEdge(n.ID, p.ID, "MM_HAS_PROPERTY", nil)
		}
	}
	for _, sc := range specs {
		switch {
		case sc.MetaKind == "MM_Link":
			g.MustAddEdge(byName[sc.Source], byName[sc.Target], "MM_Link", pg.Props{"name": value.Str(sc.Name)})
		case sc.Specializes != "":
			g.MustAddEdge(byName[sc.Name], byName[sc.Specializes], "MM_SPECIALIZES", nil)
		}
	}
	return g
}
