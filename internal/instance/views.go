package instance

import (
	"fmt"

	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// CatalogFromSchema derives the MetaLog catalog of a designed super-schema:
// each node label exposes its effective attributes (own plus inherited), and
// each edge label its own attributes. This is the schema-driven counterpart
// of metalog.FromGraph, used when the property layout comes from the design
// rather than from instance inference.
func CatalogFromSchema(s *supermodel.Schema) *metalog.Catalog {
	cat := metalog.NewCatalog()
	for _, n := range s.Nodes {
		var props []string
		for _, a := range s.EffectiveAttributes(n.Name) {
			props = append(props, a.Name)
		}
		cat.EnsureNode(n.Name, props...)
	}
	for _, e := range s.Edges {
		var props []string
		for _, a := range e.Attributes {
			props = append(props, a.Name)
		}
		cat.EnsureEdge(e.Name, props...)
	}
	return cat
}

// InputViews builds the V_I^Σ facts (Algorithm 2, line 5): for every node
// label, one fact per instance entity whose type is the label or a
// descendant of it — the generalization-aware reading of Example 6.2 — and
// for every edge label one fact per I_SM_Edge. Facts are encoded by the
// catalog (metalog's fact layout).
func (l *Loaded) InputViews(cat *metalog.Catalog) (*vadalog.Database, error) {
	db := vadalog.NewDatabase()
	s := l.Dict.Schema
	for _, ioid := range sortedset.Keys(l.Entities) {
		ent := l.Entities[ioid]
		labels := append([]string{ent.Type}, s.Ancestors(ent.Type)...)
		for _, label := range labels {
			if _, err := db.AddFact(label, cat.NodeFact(label, ioid, ent.Attrs)...); err != nil {
				return nil, err
			}
		}
	}
	err := l.eachEdge(func(ie pg.OID, typ string, from, to pg.OID, attrs pg.Props) error {
		if typ == "" || from == 0 || to == 0 {
			return fmt.Errorf("instance: malformed I_SM_Edge %d", ie)
		}
		_, err := db.AddFact(typ, cat.EdgeFact(typ, ie, from, to, attrs)...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// eachEdge decodes the instance's I_SM_Edge constructs, in dictionary order,
// into their type, endpoints and attributes. A construct the dictionary holds
// incompletely reaches visit with the zero type or endpoint.
func (l *Loaded) eachEdge(visit func(ie pg.OID, typ string, from, to pg.OID, attrs pg.Props) error) error {
	g := l.Dict.Graph
	for _, ie := range g.NodesByLabel(LIEdge) {
		if io, ok := ie.Props["instanceOID"]; !ok || io.I != l.InstanceOID {
			continue
		}
		var typ string
		var from, to pg.OID
		attrs := pg.Props{}
		for _, e := range g.Out(ie.ID) {
			switch e.Label {
			case LRefs:
				typ, _ = constructTypeName(g, e.To, supermodel.LHasEdgeType)
			case LIFrom:
				from = e.To
			case LITo:
				to = e.To
			case LIHasEAttr:
				ia := g.Node(e.To)
				for _, re := range g.Out(ia.ID) {
					if re.Label == LRefs {
						attrs[g.Node(re.To).Props["name"].S] = ia.Props["value"]
					}
				}
			}
		}
		if err := visit(ie.ID, typ, from, to, attrs); err != nil {
			return err
		}
	}
	return nil
}

// DerivedEdge is one intensional edge produced by the reasoning process.
type DerivedEdge struct {
	IOID  pg.OID
	Type  string
	From  pg.OID
	To    pg.OID
	Attrs map[string]value.Value
}

// Derived is the output of the flush phase: the derived components written
// back into the instance super-constructs (Algorithm 2, line 9).
type Derived struct {
	NewEntities  []*Entity
	NewEdges     []DerivedEdge
	UpdatedProps int
}

// Flush applies the V_O^Σ output views: derived node facts become new
// I_SM_Nodes (one per distinct Skolem identifier), derived edge facts become
// I_SM_Edges between resolved entities, and in-place updates set attribute
// values on existing entities.
func (l *Loaded) Flush(db *vadalog.Database, tr *metalog.Translation, cat *metalog.Catalog) (*Derived, error) {
	out := &Derived{}
	d := l.Dict
	idMap := map[string]pg.OID{}

	resolve := func(v value.Value, createType string) (pg.OID, error) {
		if oid, ok := v.AsInt(); ok {
			if _, ok := l.Entities[pg.OID(oid)]; !ok {
				return 0, fmt.Errorf("instance: derived fact references unknown entity %d", oid)
			}
			return pg.OID(oid), nil
		}
		key := v.Canonical()
		if oid, ok := idMap[key]; ok {
			return oid, nil
		}
		if createType == "" {
			return 0, fmt.Errorf("instance: derived edge endpoint %s does not correspond to any entity", v)
		}
		ioid, err := d.addInstanceNode(l.InstanceOID, createType, nil)
		if err != nil {
			return 0, err
		}
		ent := &Entity{IOID: ioid, Type: createType, Attrs: map[string]value.Value{}}
		l.Entities[ioid] = ent
		out.NewEntities = append(out.NewEntities, ent)
		idMap[key] = ioid
		return ioid, nil
	}

	// setAttrs writes a fact's present properties onto an entity. Derived node
	// facts carry every column of their label's layout, so only the attributes
	// the entity's type declares are kept; an update names its attribute.
	setAttrs := func(ioid pg.OID, props []metalog.PropValue, declaredOnly bool) error {
		ent := l.Entities[ioid]
		for _, p := range props {
			if declaredOnly {
				if _, ok := d.attrConstruct(ent.Type, p.Name); !ok {
					continue
				}
			}
			if cur, ok := ent.Attrs[p.Name]; !ok || !value.Identical(cur, p.Value) {
				ent.Attrs[p.Name] = p.Value
				out.UpdatedProps++
				if err := d.setInstanceAttr(l.InstanceOID, ioid, ent.Type, p.Name, p.Value); err != nil {
					return err
				}
			}
		}
		return nil
	}

	err := metalog.WalkDerived(db, tr, cat, func(f *metalog.DerivedFact) error {
		switch f.Kind {
		case metalog.HeadNode:
			ioid, err := resolve(f.ID, f.Label)
			if err != nil {
				return err
			}
			return setAttrs(ioid, f.Props, true)
		case metalog.UpdateNode:
			ioid, err := resolve(f.ID, "")
			if err != nil {
				return err
			}
			return setAttrs(ioid, f.Props, false)
		}
		// Derived edges: only Skolem-identified facts are new derivations;
		// integer-identified facts are the input edges echoed through the views.
		if _, isInput := f.ID.AsInt(); isInput {
			return nil
		}
		from, err := resolve(f.From, "")
		if err != nil {
			return err
		}
		to, err := resolve(f.To, "")
		if err != nil {
			return err
		}
		attrs := make(map[string]value.Value, len(f.Props))
		for _, p := range f.Props {
			attrs[p.Name] = p.Value
		}
		ieOID, err := d.addInstanceEdge(l.InstanceOID, f.Label, from, to, attrs)
		if err != nil {
			return err
		}
		out.NewEdges = append(out.NewEdges, DerivedEdge{
			IOID: ieOID, Type: f.Label, From: from, To: to, Attrs: attrs,
		})
		l.EdgeCount++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// setInstanceAttr updates or creates the I_SM_Attribute twin for one
// attribute of an instance node.
func (d *Dictionary) setInstanceAttr(instOID int64, ioid pg.OID, nodeType, attr string, v value.Value) error {
	ac, ok := d.attrConstruct(nodeType, attr)
	if !ok {
		return fmt.Errorf("instance: node type %s has no attribute %q", nodeType, attr)
	}
	// Update in place if the twin exists.
	for _, e := range d.Graph.Out(ioid) {
		if e.Label != LIHasNAttr {
			continue
		}
		ia := d.Graph.Node(e.To)
		for _, re := range d.Graph.Out(ia.ID) {
			if re.Label == LRefs && re.To == ac {
				// Through SetNodeProp, not a direct map write: Materialize
				// flushes under a savepoint, and only journaled writes roll
				// back (pg/snapshot.go).
				return d.Graph.SetNodeProp(ia.ID, "value", v)
			}
		}
	}
	d.addAttrTwin(instOID, ioid, LIHasNAttr, ac, v)
	return nil
}
