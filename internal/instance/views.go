package instance

import (
	"fmt"

	"repro/internal/metalog"
	"repro/internal/pg"
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
// for every edge label one fact per I_SM_Edge. Each label's relation is
// sealed (vadalog.Database.InstallRows) over a metalog.Rows in OID order,
// which reads the entities' and edges' attribute lists in place under the
// catalog's layout: nothing is copied or hashed, since the OIDs make the
// facts distinct. An attribute list is never written in place (Flush
// replaces an entity's), so the relations keep reading the loaded instance.
// Node and edge labels never share a name (the schema keeps one namespace of
// types), and no error is returned.
func (l *Loaded) InputViews(cat *metalog.Catalog) (*vadalog.Database, error) {
	rels := map[string]*metalog.Rows{}
	for i := range l.Entities {
		ent := &l.Entities[i]
		for _, label := range l.Dict.upcasts[ent.Type] {
			r := rels[label]
			if r == nil {
				r = cat.NodeRows(label)
				rels[label] = r
			}
			r.Add(ent.Attrs, ent.IOID)
		}
	}
	for _, e := range l.Edges {
		r := rels[e.Type]
		if r == nil {
			r = cat.EdgeRows(e.Type)
			rels[e.Type] = r
		}
		r.Add(e.Attrs, e.IOID, e.From, e.To)
	}
	db := vadalog.NewDatabase()
	for label, r := range rels {
		db.InstallRows(label, r.Arity(), r)
	}
	return db, nil
}

// Derived is the output of the flush phase: the derived components written
// back into the instance super-constructs (Algorithm 2, line 9).
type Derived struct {
	NewEntities  []Entity
	NewEdges     []Edge
	UpdatedProps int
	// Updates lists the attributes the flush changed on loaded entities,
	// each once, in the order first changed; the values are the entities'.
	Updates []Update
}

// Update names one attribute of a loaded entity.
type Update struct {
	Entity pg.OID
	Attr   string
}

// Flush applies the V_O^Σ output views: derived node facts become new
// I_SM_Nodes (one per distinct Skolem identifier), derived edge facts become
// I_SM_Edges between resolved entities, and in-place updates set attribute
// values on existing entities.
func (l *Loaded) Flush(db *vadalog.Database, tr *metalog.Translation, cat *metalog.Catalog) (*Derived, error) {
	out := &Derived{}
	d := l.Dict
	idMap := map[string]pg.OID{}
	firstEdge, firstEntity := len(l.Edges), len(l.Entities)
	firstNew := d.next // entities below it were loaded, not derived
	updated := map[Update]bool{}

	resolve := func(v value.Value, createType string) (pg.OID, error) {
		if oid, ok := v.AsInt(); ok {
			if l.Entity(pg.OID(oid)) == nil {
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
		ioid, err := l.addEntity(createType, nil, 0)
		if err != nil {
			return 0, err
		}
		idMap[key] = ioid
		return ioid, nil
	}

	// setAttrs writes a fact's present properties onto an entity. Derived node
	// facts carry every column of their label's layout, so only the attributes
	// the entity's type declares are kept; an update names its attribute.
	setAttrs := func(ioid pg.OID, props pg.PropList, declaredOnly bool) error {
		ent := l.Entity(ioid)
		for _, p := range props {
			if _, ok := d.nodeAttr[ent.Type][p.Key]; !ok {
				if declaredOnly {
					continue
				}
				return fmt.Errorf("instance: node type %s has no attribute %q", ent.Type, p.Key)
			}
			if cur, ok := ent.Attrs.Get(p.Key); !ok || !value.Identical(cur, p.Val) {
				l.setAttr(ent, p.Key, p.Val)
				out.UpdatedProps++
				if u := (Update{ioid, p.Key}); ioid < firstNew && !updated[u] {
					updated[u] = true
					out.Updates = append(out.Updates, u)
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
		// The props come in layout order, which is name order; a fact without
		// any copies to a nil list.
		return l.addEdge(f.Label, from, to, append(pg.PropList(nil), f.Props...))
	})
	if err != nil {
		return nil, err
	}
	out.NewEntities = l.Entities[firstEntity:len(l.Entities):len(l.Entities)]
	out.NewEdges = l.Edges[firstEdge:len(l.Edges):len(l.Edges)]
	return out, nil
}
