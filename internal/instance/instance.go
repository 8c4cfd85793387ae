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
//
// The dictionary keeps that encoding as rows, not as graph writes: one
// Entity per I_SM_Node and one Edge per I_SM_Edge, each with its attribute
// values. Every construct of the encoding — the twins and the linking edges
// included — still owns an OID, allocated arithmetically in creation order,
// and Dictionary.Constructs renders the graph of Figure 9 from the rows when
// something asks for it.
package instance

import (
	"fmt"
	"slices"
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

// OIDs each instance construct takes, consecutively, from the allocator.
const (
	entitySpan = 2 // the I_SM_Node, its SM_REFERENCES
	edgeSpan   = 4 // the I_SM_Edge, its SM_REFERENCES, I_SM_FROM, I_SM_TO
	twinSpan   = 3 // the I_SM_Attribute, the owner's I_SM_HAS_*_ATTR, its SM_REFERENCES
)

// Dictionary is a graph dictionary holding a super-schema, the index of its
// constructs, and the instance level of every data instance attached to it.
//
// Graph holds the schema constructs only. The instance constructs live in the
// attached Loaded instances, at OIDs allocated above every OID of Graph, so
// nothing may be added to Graph once an instance is loaded.
type Dictionary struct {
	Graph  *pg.Graph
	Schema *supermodel.Schema

	// Construct OIDs of the schema in the dictionary.
	nodeConstruct map[string]pg.OID            // node type name -> SM_Node OID
	edgeConstruct map[string]pg.OID            // edge type name -> SM_Edge OID
	nodeAttr      map[string]map[string]pg.OID // node type -> effective attr name -> SM_Attribute OID
	edgeAttr      map[string]map[string]pg.OID
	// upcasts lists each node type followed by its ancestors: the labels an
	// entity of that type is viewed and exported under.
	upcasts map[string][]string

	next     pg.OID    // the OID the next instance construct takes
	attached []*Loaded // in attach order
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
		upcasts:       map[string][]string{},
		next:          1,
	}
	// Resolve constructs through SM_HAS_NODE_TYPE / SM_HAS_EDGE_TYPE names.
	ownAttr := map[string]map[string]pg.OID{}
	for _, n := range g.NodesByLabel(supermodel.LNode) {
		if !inSchema(n, s.OID) {
			continue
		}
		name, ok := constructTypeName(g, n.ID, supermodel.LHasNodeType)
		if !ok {
			return nil, fmt.Errorf("instance: SM_Node %d has no type", n.ID)
		}
		d.nodeConstruct[name] = n.ID
		ownAttr[name] = attrIndex(g, n.ID, supermodel.LHasNodeProp)
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
	// A type's attributes are its own, then each ancestor's (in name order)
	// that no earlier one declares.
	for name := range ownAttr {
		upcasts := append([]string{name}, s.Ancestors(name)...)
		eff := map[string]pg.OID{}
		for _, from := range upcasts {
			for attr, oid := range ownAttr[from] {
				if _, ok := eff[attr]; !ok {
					eff[attr] = oid
				}
			}
		}
		d.nodeAttr[name] = eff
		d.upcasts[name] = upcasts
	}
	// Instance OIDs start above the schema's.
	if ns := g.Nodes(); len(ns) > 0 {
		d.next = ns[len(ns)-1].ID + 1
	}
	if es := g.Edges(); len(es) > 0 && es[len(es)-1].ID >= d.next {
		d.next = es[len(es)-1].ID + 1
	}
	return d, nil
}

func inSchema(n *pg.Node, oid int64) bool {
	so, ok := n.Props["schemaOID"]
	return ok && so.K == value.Int && so.I == oid
}

func constructTypeName(g *pg.Graph, owner pg.OID, label string) (string, bool) {
	for _, e := range g.Out(owner) {
		if e.Label == label {
			if nm, ok := g.Node(e.To).Props["name"]; ok {
				return nm.S, true
			}
		}
	}
	return "", false
}

func attrIndex(g *pg.Graph, owner pg.OID, label string) map[string]pg.OID {
	out := map[string]pg.OID{}
	for _, e := range g.Out(owner) {
		if e.Label == label {
			out[g.Node(e.To).Props["name"].S] = e.To
		}
	}
	return out
}

// alloc reserves n consecutive OIDs and returns the first.
func (d *Dictionary) alloc(n int) pg.OID {
	oid := d.next
	d.next += pg.OID(n)
	return oid
}

// Entity is one instance node loaded into the super-components: its
// I_SM_Node OID in the dictionary, its most specific type, its attribute
// values, and the OID of the data node it was loaded from — 0 when no data
// node backs it (a relational row, an entity the flush derived).
//
// Attrs is in attribute-name order and never written in place: a change
// replaces the list (setAttr), so a list once handed out — to the input
// views — keeps reading what it read.
type Entity struct {
	IOID   pg.OID
	Type   string
	Attrs  pg.PropList
	Source pg.OID

	// twins lists the entity's I_SM_Attribute twins in creation order. Nil
	// stands for the twins the entity was created with: one per attribute,
	// in name order, right after its own OIDs.
	twins []twin
}

// twin is one I_SM_Attribute twin: the attribute it holds and its OID.
type twin struct {
	attr string
	oid  pg.OID
}

// twinList returns the entity's attribute twins in creation order.
func (e *Entity) twinList() []twin {
	if e.twins != nil {
		return e.twins
	}
	return contiguousTwins(e.IOID+entitySpan, e.Attrs)
}

// contiguousTwins lays out the twins of a construct created with the given
// attributes: one per attribute in list (name) order, from first on.
func contiguousTwins(first pg.OID, attrs pg.PropList) []twin {
	out := make([]twin, len(attrs))
	for i, p := range attrs {
		out[i] = twin{p.Key, first + pg.OID(i*twinSpan)}
	}
	return out
}

// byName sorts a freshly built attribute list into name order and returns
// it.
func byName(attrs pg.PropList) pg.PropList {
	slices.SortFunc(attrs, func(a, b pg.Prop) int { return strings.Compare(a.Key, b.Key) })
	return attrs
}

// Edge is one instance edge: its I_SM_Edge OID, its type, the I_SM_Node
// OIDs of its endpoints, and its attribute values in name order. Its twins
// take the OIDs right after its own, one per attribute in that order; edges
// are never updated.
type Edge struct {
	IOID     pg.OID
	Type     string
	From, To pg.OID
	Attrs    pg.PropList
}

// Loaded is the result of loading a data instance into the dictionary's
// instance super-constructs (Algorithm 2, line 4).
type Loaded struct {
	Dict        *Dictionary
	InstanceOID int64

	// Entities holds the instance nodes in I_SM_Node OID order: the loaded
	// ones, then those Flush derived. OIDs are allocated in increasing
	// order, so appending keeps it sorted; Entity looks one up.
	Entities []Entity
	// Edges holds the instance edges in OID order: the loaded ones, then
	// those Flush derived.
	Edges []Edge
}

// Entity returns the entity whose I_SM_Node OID is ioid, or nil. The
// pointer is into Entities, so adding an entity invalidates it.
func (l *Loaded) Entity(ioid pg.OID) *Entity {
	if i := l.index(ioid); i >= 0 {
		return &l.Entities[i]
	}
	return nil
}

// index returns the position in Entities of the entity whose I_SM_Node OID
// is ioid, or -1.
func (l *Loaded) index(ioid pg.OID) int {
	i := sort.Search(len(l.Entities), func(i int) bool { return l.Entities[i].IOID >= ioid })
	if i == len(l.Entities) || l.Entities[i].IOID != ioid {
		return -1
	}
	return i
}

// addEntity creates an entity with one twin per attribute and returns its
// I_SM_Node OID. The attributes must be ones its type declares, in name
// order; callers filter and sort them.
func (l *Loaded) addEntity(nodeType string, attrs pg.PropList, source pg.OID) (pg.OID, error) {
	if _, ok := l.Dict.nodeConstruct[nodeType]; !ok {
		return 0, fmt.Errorf("instance: unknown node type %q", nodeType)
	}
	ioid := l.Dict.alloc(entitySpan + twinSpan*len(attrs))
	l.Entities = append(l.Entities, Entity{IOID: ioid, Type: nodeType, Attrs: attrs, Source: source})
	return ioid, nil
}

// setAttr sets one attribute value of an entity by replacing its list with
// a copy holding the value; an attribute it had no value for gets a new
// twin.
func (l *Loaded) setAttr(ent *Entity, name string, v value.Value) {
	i, had := slices.BinarySearchFunc(ent.Attrs, name, func(p pg.Prop, name string) int { return strings.Compare(p.Key, name) })
	attrs := append(make(pg.PropList, 0, len(ent.Attrs)+1), ent.Attrs...)
	if had {
		attrs[i].Val = v
	} else {
		ent.twins = append(ent.twinList(), twin{name, l.Dict.alloc(twinSpan)})
		attrs = slices.Insert(attrs, i, pg.Prop{Key: name, Val: v})
	}
	ent.Attrs = attrs
}

// addEdge creates an instance edge between two entities, with one twin per
// attribute; the attributes are in name order.
func (l *Loaded) addEdge(edgeType string, from, to pg.OID, attrs pg.PropList) error {
	d := l.Dict
	if _, ok := d.edgeConstruct[edgeType]; !ok {
		return fmt.Errorf("instance: unknown edge type %q", edgeType)
	}
	for _, p := range attrs {
		if _, ok := d.edgeAttr[edgeType][p.Key]; !ok {
			return fmt.Errorf("instance: edge type %s has no attribute %q", edgeType, p.Key)
		}
	}
	l.Edges = append(l.Edges, Edge{
		IOID: d.alloc(edgeSpan + twinSpan*len(attrs)), Type: edgeType, From: from, To: to, Attrs: attrs,
	})
	return nil
}

// Constructs renders the dictionary as Figure 9 encodes it: a copy of Graph
// plus, for every attached instance, its I_SM_Node, I_SM_Edge and
// I_SM_Attribute nodes and their SM_REFERENCES, I_SM_FROM, I_SM_TO and
// I_SM_HAS_*_ATTR edges, each at the OID allocated to it. It builds the graph
// on every call; it fails only if Graph gained a construct at an OID the
// instance level had allocated.
func (d *Dictionary) Constructs() (*pg.Graph, error) {
	g := d.Graph.Clone()
	var err error // the first failed insertion; later ones are skipped
	node := func(id pg.OID, label string, props pg.Props) {
		if err == nil {
			_, err = g.AddNodeWithID(id, []string{label}, props)
		}
	}
	edge := func(id, from, to pg.OID, label string) {
		if err == nil {
			_, err = g.AddEdgeWithID(id, from, to, label, nil)
		}
	}
	for _, l := range d.attached {
		inst := value.IntV(l.InstanceOID)
		addTwin := func(t twin, owner pg.OID, has string, construct pg.OID, v value.Value) {
			node(t.oid, LIAttr, pg.Props{"instanceOID": inst, "value": v})
			edge(t.oid+1, owner, t.oid, has)
			edge(t.oid+2, t.oid, construct, LRefs)
		}
		for i := range l.Entities {
			ent := &l.Entities[i]
			node(ent.IOID, LINode, pg.Props{"instanceOID": inst})
			edge(ent.IOID+1, ent.IOID, d.nodeConstruct[ent.Type], LRefs)
			for _, t := range ent.twinList() {
				v, _ := ent.Attrs.Get(t.attr)
				addTwin(t, ent.IOID, LIHasNAttr, d.nodeAttr[ent.Type][t.attr], v)
			}
		}
		for _, e := range l.Edges {
			node(e.IOID, LIEdge, pg.Props{"instanceOID": inst})
			edge(e.IOID+1, e.IOID, d.edgeConstruct[e.Type], LRefs)
			edge(e.IOID+2, e.IOID, e.From, LIFrom)
			edge(e.IOID+3, e.IOID, e.To, LITo)
			for i, t := range contiguousTwins(e.IOID+edgeSpan, e.Attrs) {
				addTwin(t, e.IOID, LIHasEAttr, d.edgeAttr[e.Type][t.attr], e.Attrs[i].Val)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("instance: rendering the dictionary: %w", err)
	}
	return g, nil
}

// LoadPG loads a property-graph data instance into the instance
// super-constructs: the quasi-inverse (V(M).copy)⁻¹ for the PG model, which
// reads the data back into the super-model. Each data node must carry
// exactly one most-specific schema label (multi-label tagging is resolved
// against the generalization hierarchy). The loaded instance is attached to
// the dictionary; on failure nothing is.
func (d *Dictionary) LoadPG(data pg.View, instanceOID int64) (*Loaded, error) {
	return d.attach(func() (*Loaded, error) { return d.loadPG(data, instanceOID) })
}

// LoadRelational loads a relational data instance into the instance
// super-constructs: the quasi-inverse for the relational model. Entities
// split across table-per-class relations are re-joined on their inherited
// identifiers, junction tables become I_SM_Edges, and foreign-key columns
// of functional edges become I_SM_Edges as well. The loaded instance is
// attached to the dictionary; on failure nothing is.
func (d *Dictionary) LoadRelational(ri *RelationalInstance, instanceOID int64) (*Loaded, error) {
	return d.attach(func() (*Loaded, error) { return d.loadRelational(ri, instanceOID) })
}

// attach runs a load and attaches what it built. A load that fails attaches
// nothing and hands its OIDs back.
func (d *Dictionary) attach(load func() (*Loaded, error)) (*Loaded, error) {
	mark := d.next
	l, err := load()
	if err != nil {
		d.next = mark
		return nil, err
	}
	d.attached = append(d.attached, l)
	return l, nil
}

// loadPG is LoadPG building its instance aside. On failure the OIDs it
// allocated stay allocated; its callers restore the allocator.
func (d *Dictionary) loadPG(data pg.View, instanceOID int64) (*Loaded, error) {
	out := &Loaded{Dict: d, InstanceOID: instanceOID, Entities: make([]Entity, 0, data.NumNodes())}
	var err error
	data.ScanNodes(func(n *pg.NodeRow) bool {
		var typ string
		if typ, err = d.Schema.MostSpecificType(n.Labels); err != nil {
			err = fmt.Errorf("instance: node %d: %w", n.ID, err)
			return false
		}
		_, err = out.addEntity(typ, declared(n.Props, d.nodeAttr[typ]), n.ID)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	data.ScanEdges(func(e *pg.EdgeRow) bool {
		attrs, ok := d.edgeAttr[e.Label]
		if !ok {
			return true // label outside the schema (e.g. auxiliary data)
		}
		var from, to pg.OID
		if from, err = out.loadedFrom(e.From); err == nil {
			if to, err = out.loadedFrom(e.To); err == nil {
				err = out.addEdge(e.Label, from, to, declared(e.Props, attrs))
			}
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// declared copies the properties of a scanned row that attrs declares into a
// list of their own, in name order: a view need not hold keys in it.
func declared(row pg.PropList, attrs map[string]pg.OID) pg.PropList {
	return byName(slices.DeleteFunc(slices.Clone(row), func(p pg.Prop) bool {
		_, ok := attrs[p.Key]
		return !ok
	}))
}

// loadedFrom returns the I_SM_Node OID of the entity loaded from a data
// node. A view scans its nodes in ascending OID order, so the entities
// loadPG creates are in ascending Source order.
func (l *Loaded) loadedFrom(source pg.OID) (pg.OID, error) {
	i := sort.Search(len(l.Entities), func(i int) bool { return l.Entities[i].Source >= source })
	if i == len(l.Entities) || l.Entities[i].Source != source {
		return 0, fmt.Errorf("instance: edge endpoint %d is not a loaded node", source)
	}
	return l.Entities[i].IOID, nil
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

// EntityConflictError is LoadRelational's error for rows of two node types,
// neither a generalization of the other, that carry the same identifier
// values. The table-per-class rows of one entity share its identifier, but
// rows of unrelated types cannot describe one entity, and merging them would
// drop one of the two.
type EntityConflictError struct {
	Types [2]string // the type the identifier was first loaded as, then the row's
	Key   string    // the identifier values, canonical, in attribute-name order
}

func (e *EntityConflictError) Error() string {
	return fmt.Sprintf("instance: rows of unrelated types %s and %s share the identifier (%s)",
		e.Types[0], e.Types[1], e.Key)
}

// loadRelational is LoadRelational building its instance aside. On failure
// the OIDs it allocated stay allocated; its callers restore the allocator.
func (d *Dictionary) loadRelational(ri *RelationalInstance, instanceOID int64) (*Loaded, error) {
	out := &Loaded{Dict: d, InstanceOID: instanceOID}
	s := d.Schema

	// idNames lists a type's effective identifier attributes in name order,
	// the order a key joins their values in.
	idNames := func(nodeType string) []string {
		var names []string
		for _, a := range s.EffectiveIDAttributes(nodeType) {
			names = append(names, a.Name)
		}
		sort.Strings(names)
		return names
	}
	// key joins the canonical values of the row's prefix+name columns; it
	// names the first column the row lacks.
	key := func(r Row, prefix string, names []string) (string, string) {
		parts := make([]string, len(names))
		for i, n := range names {
			v, ok := r[prefix+n]
			if !ok {
				return "", prefix + n
			}
			parts[i] = v.Canonical()
		}
		return strings.Join(parts, "\x00"), ""
	}
	idKey := func(nodeType string, r Row) (string, error) {
		names := idNames(nodeType)
		if len(names) == 0 {
			return "", fmt.Errorf("instance: node type %s has no identifier", nodeType)
		}
		k, missing := key(r, "", names)
		if missing != "" {
			return "", fmt.Errorf("instance: row of %s misses identifier column %s", nodeType, missing)
		}
		return k, nil
	}

	// Pass 1: group rows by entity key; the most specific relation holding
	// the key determines the entity type, and attributes merge across the
	// table-per-class levels.
	type pending struct {
		typ   string
		attrs map[string]value.Value
	}
	entities := map[string]*pending{}
	// deeper returns the more specific of the type a key was loaded as and
	// the type of a row carrying it, one of which must descend from the other.
	deeper := func(loaded, row, key string) (string, error) {
		switch {
		case loaded == row || slices.Contains(s.Ancestors(row), loaded):
			return row, nil
		case slices.Contains(s.Ancestors(loaded), row):
			return loaded, nil
		}
		return "", &EntityConflictError{Types: [2]string{loaded, row}, Key: strings.ReplaceAll(key, "\x00", ", ")}
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
			} else if p.typ, err = deeper(p.typ, n.Name, key); err != nil {
				return nil, err
			}
			for col, v := range r {
				if _, ok := d.nodeAttr[n.Name][col]; ok {
					p.attrs[col] = v
				}
			}
		}
	}
	byKey := map[string]pg.OID{}
	out.Entities = make([]Entity, 0, len(entities))
	for _, k := range sortedset.Keys(entities) {
		p := entities[k]
		attrs := make(pg.PropList, 0, len(p.attrs))
		for name, v := range p.attrs {
			attrs = append(attrs, pg.Prop{Key: name, Val: v})
		}
		ioid, err := out.addEntity(p.typ, byName(attrs), 0)
		if err != nil {
			return nil, err
		}
		byKey[k] = ioid
	}

	lookupRef := func(target string, r Row, prefix string) (pg.OID, error) {
		k, missing := key(r, prefix, idNames(target))
		if missing != "" {
			return 0, fmt.Errorf("instance: missing foreign-key column %s", missing)
		}
		ioid, ok := byKey[k]
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
				if err := out.addEdge(e.Name, from, to, edgeAttrs(e, r)); err != nil {
					return nil, err
				}
			}
		default:
			holder, target := e.From, e.To
			if !e.FromCard.Max1 && e.ToCard.Max1 {
				holder, target = e.To, e.From
			}
			prefix := strings.ToLower(e.Name) + "_"
			fkColumn := prefix
			if ids := idNames(target); len(ids) > 0 {
				fkColumn += ids[0]
			}
			for _, r := range ri.Tables[holder] {
				if _, ok := r[fkColumn]; !ok {
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
				from := byKey[fromKey]
				src, dst := from, to
				if holder != e.From {
					src, dst = to, from
				}
				if err := out.addEdge(e.Name, src, dst, edgeAttrs(e, r)); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// edgeAttrs picks an edge's declared attributes out of the row holding it.
func edgeAttrs(e *supermodel.Edge, r Row) pg.PropList {
	var attrs pg.PropList
	for _, a := range e.Attributes {
		if v, ok := r[a.Name]; ok {
			attrs = append(attrs, pg.Prop{Key: a.Name, Val: v})
		}
	}
	return byName(attrs)
}
