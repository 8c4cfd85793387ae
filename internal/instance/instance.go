// Package instance implements the instance level of KGModel (Section 6):
// the instance super-constructs of Figure 9, the loading of data instances
// into super-components via quasi-inverse mappings, the input/output views
// that let a MetaLog intensional component Σ run over super-schema
// instances, and Algorithm 2 — the end-to-end materialization of the
// intensional component with its load / reason / flush phase breakdown.
//
// Instance constructs extend the graph dictionary: every super-construct C
// has an I_C "instance twin" connected to the schema construct it
// instantiates by an SM_REFERENCES edge. I_SM_Attribute additionally holds a
// value property:
//
//	(i:I_SM_Node  {instanceOID})  -SM_REFERENCES->  (n:SM_Node)
//	(e:I_SM_Edge  {instanceOID})  -SM_REFERENCES->  (s:SM_Edge)
//	(a:I_SM_Attribute {instanceOID, value}) -SM_REFERENCES-> (sa:SM_Attribute)
//	I_SM_HAS_NODE_ATTR  i -> a      I_SM_HAS_EDGE_ATTR  e -> a
//	I_SM_FROM           e -> i      I_SM_TO             e -> i
package instance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/supermodel"
	"repro/internal/value"
)

// Instance construct labels (Figure 9).
const (
	LINode     = "I_SM_Node"
	LIEdge     = "I_SM_Edge"
	LIAttr     = "I_SM_Attribute"
	LRefs      = "SM_REFERENCES"
	LIHasNAttr = "I_SM_HAS_NODE_ATTR"
	LIHasEAttr = "I_SM_HAS_EDGE_ATTR"
	LIFrom     = "I_SM_FROM"
	LITo       = "I_SM_TO"
)

// Dictionary wraps a graph dictionary holding a super-schema together with
// the index structures needed to create and navigate instance constructs.
type Dictionary struct {
	Graph  *pg.Graph
	Schema *supermodel.Schema

	// Construct OIDs of the schema in the dictionary.
	nodeConstruct map[string]pg.OID            // node type name -> SM_Node OID
	edgeConstruct map[string]pg.OID            // edge type name -> SM_Edge OID
	nodeAttr      map[string]map[string]pg.OID // node type -> attr name -> SM_Attribute OID
	edgeAttr      map[string]map[string]pg.OID
}

// NewDictionary stores the super-schema into a fresh dictionary and indexes
// its constructs.
func NewDictionary(s *supermodel.Schema) (*Dictionary, error) {
	g := supermodel.NewDictionary()
	if err := supermodel.ToDictionary(s, g); err != nil {
		return nil, err
	}
	return IndexDictionary(g, s)
}

// IndexDictionary indexes an existing dictionary that already contains the
// schema.
func IndexDictionary(g *pg.Graph, s *supermodel.Schema) (*Dictionary, error) {
	d := &Dictionary{
		Graph:         g,
		Schema:        s,
		nodeConstruct: map[string]pg.OID{},
		edgeConstruct: map[string]pg.OID{},
		nodeAttr:      map[string]map[string]pg.OID{},
		edgeAttr:      map[string]map[string]pg.OID{},
	}
	// Resolve constructs through SM_HAS_NODE_TYPE / SM_HAS_EDGE_TYPE names.
	for _, n := range g.NodesByLabel(supermodel.LNode) {
		if !inSchema(n, s.OID) {
			continue
		}
		name, ok := constructTypeName(g, n.ID, supermodel.LHasNodeType)
		if !ok {
			return nil, fmt.Errorf("instance: SM_Node %d has no type", n.ID)
		}
		d.nodeConstruct[name] = n.ID
		d.nodeAttr[name] = attrIndex(g, n.ID, supermodel.LHasNodeProp)
	}
	for _, e := range g.NodesByLabel(supermodel.LEdge) {
		if !inSchema(e, s.OID) {
			continue
		}
		name, ok := constructTypeName(g, e.ID, supermodel.LHasEdgeType)
		if !ok {
			return nil, fmt.Errorf("instance: SM_Edge %d has no type", e.ID)
		}
		d.edgeConstruct[name] = e.ID
		d.edgeAttr[name] = attrIndex(g, e.ID, supermodel.LHasEdgeProp)
	}
	for _, n := range s.Nodes {
		if _, ok := d.nodeConstruct[n.Name]; !ok {
			return nil, fmt.Errorf("instance: dictionary misses construct for node %s", n.Name)
		}
	}
	return d, nil
}

func inSchema(n *pg.Node, oid int64) bool {
	so, ok := n.Props["schemaOID"]
	return ok && so.K == value.Int && so.I == oid
}

func constructTypeName(g pg.View, owner pg.OID, label string) (string, bool) {
	for _, e := range g.Out(owner) {
		if e.Label == label {
			if nm, ok := g.Node(e.To).Props["name"]; ok {
				return nm.S, true
			}
		}
	}
	return "", false
}

func attrIndex(g pg.View, owner pg.OID, label string) map[string]pg.OID {
	out := map[string]pg.OID{}
	for _, e := range g.Out(owner) {
		if e.Label == label {
			out[g.Node(e.To).Props["name"].S] = e.To
		}
	}
	return out
}

// Entity is one instance node loaded into the super-components: its
// I_SM_Node OID in the dictionary, its most specific type, and its
// attribute values.
type Entity struct {
	IOID  pg.OID
	Type  string
	Attrs map[string]value.Value
}

// Loaded is the result of loading a data instance into the dictionary's
// instance super-constructs (Algorithm 2, line 4).
type Loaded struct {
	Dict        *Dictionary
	InstanceOID int64

	// Entities indexed by the I_SM_Node OID.
	Entities map[pg.OID]*Entity
	// SourceNode maps a source PG node OID to its I_SM_Node OID (PG source
	// only).
	SourceNode map[pg.OID]pg.OID
	// EdgeCount is the number of I_SM_Edge constructs created.
	EdgeCount int
}

// attrValueOf resolves the attribute construct for a (possibly inherited)
// attribute of the given type.
func (d *Dictionary) attrConstruct(nodeType, attr string) (pg.OID, bool) {
	if oid, ok := d.nodeAttr[nodeType][attr]; ok {
		return oid, true
	}
	for _, anc := range d.Schema.Ancestors(nodeType) {
		if oid, ok := d.nodeAttr[anc][attr]; ok {
			return oid, true
		}
	}
	return 0, false
}

// addInstanceNode creates an I_SM_Node with its attribute twins.
func (d *Dictionary) addInstanceNode(instOID int64, nodeType string, attrs map[string]value.Value) (pg.OID, error) {
	construct, ok := d.nodeConstruct[nodeType]
	if !ok {
		return 0, fmt.Errorf("instance: unknown node type %q", nodeType)
	}
	in := d.Graph.AddNode([]string{LINode}, pg.Props{"instanceOID": value.IntV(instOID)})
	d.Graph.MustAddEdge(in.ID, construct, LRefs, nil)
	for _, name := range sortedset.Keys(attrs) { // creation order fixes the twins' OIDs
		ac, ok := d.attrConstruct(nodeType, name)
		if !ok {
			return 0, fmt.Errorf("instance: node type %s has no attribute %q", nodeType, name)
		}
		d.addAttrTwin(instOID, in.ID, LIHasNAttr, ac, attrs[name])
	}
	return in.ID, nil
}

// addAttrTwin creates the I_SM_Attribute holding one attribute value of an
// instance node or edge, linked from its owner and to its schema construct.
func (d *Dictionary) addAttrTwin(instOID int64, owner pg.OID, has string, ac pg.OID, v value.Value) {
	ia := d.Graph.AddNode([]string{LIAttr}, pg.Props{
		"instanceOID": value.IntV(instOID),
		"value":       v,
	})
	d.Graph.MustAddEdge(owner, ia.ID, has, nil)
	d.Graph.MustAddEdge(ia.ID, ac, LRefs, nil)
}

// addInstanceEdge creates an I_SM_Edge between two I_SM_Nodes.
func (d *Dictionary) addInstanceEdge(instOID int64, edgeType string, from, to pg.OID, attrs map[string]value.Value) (pg.OID, error) {
	construct, ok := d.edgeConstruct[edgeType]
	if !ok {
		return 0, fmt.Errorf("instance: unknown edge type %q", edgeType)
	}
	ie := d.Graph.AddNode([]string{LIEdge}, pg.Props{"instanceOID": value.IntV(instOID)})
	d.Graph.MustAddEdge(ie.ID, construct, LRefs, nil)
	d.Graph.MustAddEdge(ie.ID, from, LIFrom, nil)
	d.Graph.MustAddEdge(ie.ID, to, LITo, nil)
	for _, name := range sortedset.Keys(attrs) {
		ac, ok := d.edgeAttr[edgeType][name]
		if !ok {
			return 0, fmt.Errorf("instance: edge type %s has no attribute %q", edgeType, name)
		}
		d.addAttrTwin(instOID, ie.ID, LIHasEAttr, ac, attrs[name])
	}
	return ie.ID, nil
}

// LoadPG loads a property-graph data instance into the instance
// super-constructs: the quasi-inverse (V(M).copy)⁻¹ for the PG model, which
// reads the data back into the super-model. Each data node must carry
// exactly one most-specific schema label (multi-label tagging is resolved
// against the generalization hierarchy).
func (d *Dictionary) LoadPG(data pg.View, instanceOID int64) (*Loaded, error) {
	out := &Loaded{
		Dict:        d,
		InstanceOID: instanceOID,
		Entities:    map[pg.OID]*Entity{},
		SourceNode:  map[pg.OID]pg.OID{},
	}
	for _, n := range data.Nodes() {
		typ, err := d.Schema.MostSpecificType(n.Labels)
		if err != nil {
			return nil, fmt.Errorf("instance: node %d: %w", n.ID, err)
		}
		attrs := map[string]value.Value{}
		for k, v := range n.Props {
			if _, ok := d.attrConstruct(typ, k); ok {
				attrs[k] = v
			}
		}
		ioid, err := d.addInstanceNode(instanceOID, typ, attrs)
		if err != nil {
			return nil, err
		}
		out.Entities[ioid] = &Entity{IOID: ioid, Type: typ, Attrs: attrs}
		out.SourceNode[n.ID] = ioid
	}
	for _, e := range data.Edges() {
		if _, ok := d.edgeConstruct[e.Label]; !ok {
			continue // label outside the schema (e.g. auxiliary data)
		}
		attrs := map[string]value.Value{}
		for k, v := range e.Props {
			if _, ok := d.edgeAttr[e.Label][k]; ok {
				attrs[k] = v
			}
		}
		if _, err := d.addInstanceEdge(instanceOID, e.Label, out.SourceNode[e.From], out.SourceNode[e.To], attrs); err != nil {
			return nil, err
		}
		out.EdgeCount++
	}
	return out, nil
}

// Row is one tuple of a relational data instance.
type Row map[string]value.Value

// RelationalInstance is a data instance of the relational schema produced
// by the SSST relational mapping: one table per relation of Figure 8.
// Foreign-key columns follow the DDL emitter's naming (IS-A keys reuse the
// identifier columns; other keys are prefixed with the lowercase key name).
type RelationalInstance struct {
	Tables map[string][]Row
}

// LoadRelational loads a relational data instance into the instance
// super-constructs: the quasi-inverse for the relational model. Entities
// split across table-per-class relations are re-joined on their inherited
// identifiers, junction tables become I_SM_Edges, and foreign-key columns
// of functional edges become I_SM_Edges as well.
func (d *Dictionary) LoadRelational(ri *RelationalInstance, instanceOID int64) (*Loaded, error) {
	out := &Loaded{
		Dict:        d,
		InstanceOID: instanceOID,
		Entities:    map[pg.OID]*Entity{},
		SourceNode:  map[pg.OID]pg.OID{},
	}
	s := d.Schema

	idKey := func(nodeType string, r Row) (string, error) {
		ids := s.EffectiveIDAttributes(nodeType)
		if len(ids) == 0 {
			return "", fmt.Errorf("instance: node type %s has no identifier", nodeType)
		}
		parts := make([]string, 0, len(ids))
		names := make([]string, 0, len(ids))
		for _, a := range ids {
			names = append(names, a.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			v, ok := r[n]
			if !ok {
				return "", fmt.Errorf("instance: row of %s misses identifier column %s", nodeType, n)
			}
			parts = append(parts, v.Canonical())
		}
		return strings.Join(parts, "\x00"), nil
	}

	// Pass 1: group rows by entity key; the most specific relation holding
	// the key determines the entity type, and attributes merge across the
	// table-per-class levels.
	type pending struct {
		typ   string
		attrs map[string]value.Value
	}
	entities := map[string]*pending{}
	deeper := func(a, b string) string {
		// Returns the more specific of two types (the one that descends
		// from the other); unrelated types are an error resolved upstream.
		for _, anc := range s.Ancestors(a) {
			if anc == b {
				return a
			}
		}
		return b
	}
	for _, n := range s.Nodes {
		rows := ri.Tables[n.Name]
		for _, r := range rows {
			key, err := idKey(n.Name, r)
			if err != nil {
				return nil, err
			}
			p, ok := entities[key]
			if !ok {
				p = &pending{typ: n.Name, attrs: map[string]value.Value{}}
				entities[key] = p
			} else {
				p.typ = deeper(n.Name, p.typ)
			}
			for col, v := range r {
				if _, ok := d.attrConstruct(n.Name, col); ok {
					p.attrs[col] = v
				}
			}
		}
	}
	byKey := map[string]pg.OID{}
	for _, k := range sortedset.Keys(entities) {
		p := entities[k]
		ioid, err := d.addInstanceNode(instanceOID, p.typ, p.attrs)
		if err != nil {
			return nil, err
		}
		out.Entities[ioid] = &Entity{IOID: ioid, Type: p.typ, Attrs: p.attrs}
		byKey[k] = ioid
	}

	lookupRef := func(target string, r Row, prefix string) (pg.OID, error) {
		ids := s.EffectiveIDAttributes(target)
		names := make([]string, 0, len(ids))
		for _, a := range ids {
			names = append(names, a.Name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			v, ok := r[prefix+n]
			if !ok {
				return 0, fmt.Errorf("instance: missing foreign-key column %s%s", prefix, n)
			}
			parts = append(parts, v.Canonical())
		}
		ioid, ok := byKey[strings.Join(parts, "\x00")]
		if !ok {
			return 0, fmt.Errorf("instance: dangling foreign key to %s", target)
		}
		return ioid, nil
	}

	// Pass 2: edges. Junction tables hold one row per edge; functional
	// edges live as foreign-key columns on their holder relation.
	for _, e := range s.Edges {
		switch {
		// Intensional edges are junction relations in the relational schema;
		// previously materialized rows load as ordinary instance edges.
		case e.IsIntensional, e.IsManyToMany():
			for _, r := range ri.Tables[e.Name] {
				from, err := lookupRef(e.From, r, "fk_"+strings.ToLower(e.Name)+"_src_")
				if err != nil {
					return nil, fmt.Errorf("instance: junction %s: %w", e.Name, err)
				}
				to, err := lookupRef(e.To, r, "fk_"+strings.ToLower(e.Name)+"_dst_")
				if err != nil {
					return nil, fmt.Errorf("instance: junction %s: %w", e.Name, err)
				}
				attrs := map[string]value.Value{}
				for _, a := range e.Attributes {
					if v, ok := r[a.Name]; ok {
						attrs[a.Name] = v
					}
				}
				if _, err := d.addInstanceEdge(instanceOID, e.Name, from, to, attrs); err != nil {
					return nil, err
				}
				out.EdgeCount++
			}
		default:
			holder, target := e.From, e.To
			if !e.FromCard.Max1 && e.ToCard.Max1 {
				holder, target = e.To, e.From
			}
			prefix := strings.ToLower(e.Name) + "_"
			for _, r := range ri.Tables[holder] {
				if _, ok := r[prefix+firstIDField(s, target)]; !ok {
					continue // optional participation: FK columns absent
				}
				fromKey, err := idKey(holder, r)
				if err != nil {
					return nil, err
				}
				to, err := lookupRef(target, r, prefix)
				if err != nil {
					return nil, fmt.Errorf("instance: edge %s: %w", e.Name, err)
				}
				attrs := map[string]value.Value{}
				for _, a := range e.Attributes {
					if v, ok := r[a.Name]; ok {
						attrs[a.Name] = v
					}
				}
				from := byKey[fromKey]
				src, dst := from, to
				if holder != e.From {
					src, dst = to, from
				}
				if _, err := d.addInstanceEdge(instanceOID, e.Name, src, dst, attrs); err != nil {
					return nil, err
				}
				out.EdgeCount++
			}
		}
	}
	return out, nil
}

func firstIDField(s *supermodel.Schema, nodeType string) string {
	ids := s.EffectiveIDAttributes(nodeType)
	names := make([]string, 0, len(ids))
	for _, a := range ids {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return names[0]
}
