package metalog

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/symtab"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// Catalog fixes, for every node and edge label, the ordered list of property
// names used by the PG-to-relational mapping of Section 4 (step 1): an
// L-labeled node becomes a fact L(oid, p1, …, pn) and an L-labeled edge a
// fact L(oid, from, to, f1, …, fm), with the property columns in catalog
// order.
type Catalog struct {
	NodeProps map[string][]string // label -> sorted property names
	EdgeProps map[string][]string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{NodeProps: map[string][]string{}, EdgeProps: map[string][]string{}}
}

// Clone returns a deep copy of the catalog. Query translation extends the
// catalog it is handed (the query-result layout), so callers sharing one
// catalog across concurrent queries clone it per call.
func (c *Catalog) Clone() *Catalog {
	out := &Catalog{
		NodeProps: make(map[string][]string, len(c.NodeProps)),
		EdgeProps: make(map[string][]string, len(c.EdgeProps)),
	}
	for label, props := range c.NodeProps {
		out.NodeProps[label] = append([]string(nil), props...)
	}
	for label, props := range c.EdgeProps {
		out.EdgeProps[label] = append([]string(nil), props...)
	}
	return out
}

// FromGraph infers a catalog from the labels and properties present in a
// graph instance. It reads the view through its row scans and touches the
// layouts only for a label or a (label, key) pair it has not seen, so on a
// frozen snapshot it costs one pass over the columns.
func FromGraph(g pg.View) *Catalog {
	c := NewCatalog()
	g.ScanNodes(func(n *pg.NodeRow) bool {
		for _, l := range n.Labels {
			learn(c.NodeProps, l, n.Props)
		}
		return true
	})
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		learn(c.EdgeProps, e.Label, e.Props)
		return true
	})
	return c
}

// learn registers a label and the property keys of one construct carrying
// it; the layout itself is the record of what is known already.
func learn(m map[string][]string, label string, props pg.PropList) {
	if _, ok := m[label]; !ok {
		ensure(m, label, nil)
	}
	for _, p := range props {
		if !sortedset.Contains(m[label], p.Key) {
			ensure(m, label, []string{p.Key})
		}
	}
}

func ensure(m map[string][]string, label string, props []string) {
	existing := m[label]
	seen := map[string]bool{}
	for _, p := range existing {
		seen[p] = true
	}
	changed := false
	for _, p := range props {
		if !seen[p] {
			existing = append(existing, p)
			seen[p] = true
			changed = true
		}
	}
	if changed || m[label] == nil {
		sort.Strings(existing)
		if existing == nil {
			existing = []string{}
		}
		m[label] = existing
	}
}

// EnsureNode registers a node label with the given properties (merged with
// any already known, kept sorted).
func (c *Catalog) EnsureNode(label string, props ...string) { ensure(c.NodeProps, label, props) }

// EnsureEdge registers an edge label with the given properties.
func (c *Catalog) EnsureEdge(label string, props ...string) { ensure(c.EdgeProps, label, props) }

// HasNode reports whether the label is registered as a node label.
func (c *Catalog) HasNode(label string) bool { _, ok := c.NodeProps[label]; return ok }

// HasEdge reports whether the label is registered as an edge label.
func (c *Catalog) HasEdge(label string) bool { _, ok := c.EdgeProps[label]; return ok }

// NodeArity returns the relational arity of a node label: 1 (oid) + #props.
func (c *Catalog) NodeArity(label string) int { return 1 + len(c.NodeProps[label]) }

// EdgeArity returns the relational arity of an edge label:
// 3 (oid, from, to) + #props.
func (c *Catalog) EdgeArity(label string) int { return 3 + len(c.EdgeProps[label]) }

// ExtractFacts implements translation step (1) of Section 4: it loads a
// property-graph instance into a relational database instance following the
// catalog's column layout. Multi-labeled nodes produce one fact per label.
//
// No tuple is built: every relation is sealed (vadalog.Database.InstallRows)
// over a Rows in ascending-OID order — for a *pg.Frozen the ids of its node
// or edge rows, for an *overlay.Overlay its base's rows minus the tombstones
// with references to the delta's own rows in their places, and for any
// other view (a mutable *pg.Graph, whose scan reuses its row) one copy of
// each construct's property list. Clones, engine runs and the generations
// ApplyFactsDelta derives all share the relations by pointer, hash indexes
// included. Nothing is hashed either — within a relation the OID column is
// unique, so the facts are distinct by construction.
func ExtractFacts(g pg.View, cat *Catalog) (*vadalog.Database, error) {
	x := &extraction{cat: cat, rels: map[string]*Rows{}}
	switch g := g.(type) {
	case *pg.Frozen:
		x.base(g)
		for row := range x.cols.NodeOIDs {
			if !x.baseRow(x.nodeTo, false, int32(row)) {
				break
			}
		}
		for row := range x.cols.EdgeOIDs {
			if x.err != nil || !x.baseRow(x.edgeTo, true, int32(row)) {
				break
			}
		}
	case *overlay.Overlay:
		x.base(g.Base())
		g.ScanNodeRows(func(row int32, n *pg.NodeRow) bool {
			if n == nil {
				return x.baseRow(x.nodeTo, false, row)
			}
			return x.node(n.ID, n.Labels, n.Props)
		})
		if x.err == nil {
			g.ScanEdgeRows(func(row int32, e *pg.EdgeRow) bool {
				if e == nil {
					return x.baseRow(x.edgeTo, true, row)
				}
				return x.edge(e.ID, e.From, e.To, e.Label, e.Props)
			})
		}
	default:
		g.ScanNodes(func(n *pg.NodeRow) bool { return x.node(n.ID, n.Labels, slices.Clone(n.Props)) })
		if x.err == nil {
			g.ScanEdges(func(e *pg.EdgeRow) bool { return x.edge(e.ID, e.From, e.To, e.Label, slices.Clone(e.Props)) })
		}
	}
	if x.err != nil {
		return nil, x.err
	}
	db := vadalog.NewDatabase()
	for pred, r := range x.rels {
		db.InstallRows(pred, r.Arity(), r)
	}
	return db, nil
}

// extraction is one ExtractFacts call: the relations by predicate, the first
// arity conflict, and — over frozen columns — the base graph and, per label
// symbol, where its node and edge rows go.
type extraction struct {
	cat  *Catalog
	rels map[string]*Rows
	err  error

	frozen         *pg.Frozen
	cols           pg.Columns
	nodeTo, edgeTo []*target
}

// target is where the rows of one label symbol go: the label's reading of
// the columns and its relation, both nil for a label outside the catalog.
type target struct {
	c *columns
	r *Rows
}

func (x *extraction) base(f *pg.Frozen) {
	x.frozen, x.cols = f, f.Columns()
	x.nodeTo = make([]*target, len(x.cols.SymNames)+1)
	x.edgeTo = make([]*target, len(x.cols.SymNames)+1)
}

// rel returns the relation of a construct's fact under a label, created by
// the label's first fact, sized for the base graph's constructs carrying it;
// nil, recording the error, when the label's facts so far have another arity.
func (x *extraction) rel(edge bool, id pg.OID, label string) *Rows {
	kind, nid, layout := "node", 1, x.cat.NodeProps[label]
	if edge {
		kind, nid, layout = "edge", 3, x.cat.EdgeProps[label]
	}
	r := x.rels[label]
	if r == nil {
		r = newRows(nid, layout)
		if x.frozen != nil {
			n := x.frozen.NodeLabelCount(label)
			if edge {
				n = x.frozen.EdgeLabelCount(label)
			}
			r.ids = make([]int32, 0, n)
		}
		x.rels[label] = r
	} else if r.Arity() != nid+len(layout) {
		x.err = fmt.Errorf("metalog: extracting %s %d: predicate %s used with arity %d and %d", kind, id, label, r.Arity(), nid+len(layout))
		return nil
	}
	return r
}

// baseRow records a node (edge) row of the base graph in the relation of
// each of its labels; a frozen row's labels are unique.
func (x *extraction) baseRow(to []*target, edge bool, row int32) bool {
	var syms []symtab.Sym
	if edge {
		syms = x.cols.EdgeLabels[row : row+1]
	} else {
		syms = x.cols.NodeLabels[x.cols.NodeLabelOff[row]:x.cols.NodeLabelOff[row+1]]
	}
	for _, s := range syms {
		t := to[s]
		if t == nil {
			t = &target{}
			to[s] = t
			label := x.cols.SymNames[s-1]
			if layout, ok := x.cat.NodeProps[label]; ok && !edge {
				t.c = newColumns(x.frozen, false, layout, row)
				t.r = x.rel(false, x.cols.NodeOIDs[row], label)
			} else if layout, ok := x.cat.EdgeProps[label]; ok && edge {
				t.c = newColumns(x.frozen, true, layout, row)
				t.r = x.rel(true, x.cols.EdgeOIDs[row], label)
			}
			if t.c != nil && t.r == nil {
				return false
			}
		}
		if t.c != nil {
			t.r.addRow(t.c, row)
		}
	}
	return true
}

// node records a node's facts, one per catalog label, each a reference to
// its property list; a repeated label counts once.
func (x *extraction) node(id pg.OID, labels []string, props pg.PropList) bool {
	for i, l := range labels {
		if !x.cat.HasNode(l) || slices.Contains(labels[:i], l) {
			continue
		}
		r := x.rel(false, id, l)
		if r == nil {
			return false
		}
		r.Add(props, id)
	}
	return true
}

// edge records an edge's fact when the catalog knows its label.
func (x *extraction) edge(id, from, to pg.OID, label string, props pg.PropList) bool {
	if !x.cat.HasEdge(label) {
		return true
	}
	r := x.rel(true, id, label)
	switch {
	case r == nil:
		return false
	case r.nid == 3:
		r.Add(props, id, from, to)
	default: // the label names nodes too
		ids, layout := []pg.OID{id, from, to}, x.cat.EdgeProps[label]
		r.addCells(func(col int) value.Value { return listCell(ids, props, layout, col) })
	}
	return true
}

// MaterializeStats reports what Materialize changed in the target graph.
type MaterializeStats struct {
	NodesCreated int
	NodesLabeled int
	EdgesCreated int
	PropsSet     int
}

// Materialize writes the derived node and edge facts of a reasoning result
// back into the property graph (the inverse of ExtractFacts, used to store
// the intensional component; Section 6). Facts whose OID is an existing node
// OID update that node; facts with Skolem/null OIDs create fresh nodes, one
// per distinct identifier. Edge facts are deduplicated against existing
// edges with the same label, endpoints and properties. Every write goes
// through the graph's journaled mutators, so a caller's savepoint rolls the
// whole flush back.
func Materialize(db *vadalog.Database, tr *Translation, cat *Catalog, g *pg.Graph) (MaterializeStats, error) {
	var stats MaterializeStats
	idMap := map[string]pg.OID{}

	resolveNode := func(v value.Value, createLabels []string) (pg.OID, bool, error) {
		if oid, ok := v.AsInt(); ok {
			if g.Node(pg.OID(oid)) != nil {
				return pg.OID(oid), false, nil
			}
			n, err := g.AddNodeWithID(pg.OID(oid), createLabels, nil)
			if err != nil {
				return 0, false, err
			}
			stats.NodesCreated++
			return n.ID, true, nil
		}
		key := v.Canonical()
		if oid, ok := idMap[key]; ok {
			return oid, false, nil
		}
		n := g.AddNode(createLabels, pg.Props{"_derivedOID": value.Str(key)})
		idMap[key] = n.ID
		stats.NodesCreated++
		return n.ID, true, nil
	}
	setProps := func(oid pg.OID, props pg.PropList) error {
		n := g.Node(oid)
		for _, p := range props {
			if cur, ok := n.Props[p.Key]; !ok || !value.Identical(cur, p.Val) {
				if err := g.SetNodeProp(oid, p.Key, p.Val); err != nil {
					return err
				}
				stats.PropsSet++
			}
		}
		return nil
	}

	// Existing-edge fingerprints for deduplication. WalkDerived hands out
	// edges of the program's head edge labels only, so only existing edges
	// of those labels can collide with one.
	edgeSeen := map[string]bool{}
	edgeFingerprint := func(label string, from, to pg.OID, props pg.Props) string {
		s := fmt.Sprintf("%s|%d|%d", label, from, to)
		for _, k := range sortedset.Keys(props) {
			s += "|" + k + "=" + props[k].Canonical()
		}
		return s
	}
	for l := range tr.HeadEdgeLabels {
		for _, e := range g.EdgesByLabel(l) {
			edgeSeen[edgeFingerprint(e.Label, e.From, e.To, e.Props)] = true
		}
	}

	err := WalkDerived(db, tr, cat, func(d *DerivedFact) error {
		switch d.Kind {
		case HeadNode:
			oid, created, err := resolveNode(d.ID, []string{d.Label})
			if err != nil {
				return err
			}
			if !created && !g.Node(oid).HasLabel(d.Label) {
				if err := g.AddLabel(oid, d.Label); err != nil {
					return err
				}
				stats.NodesLabeled++
			}
			return setProps(oid, d.Props)
		case UpdateNode:
			oid, ok := d.ID.AsInt()
			if !ok || g.Node(pg.OID(oid)) == nil {
				return fmt.Errorf("metalog: update of %s refers to unknown node %s", d.Label, d.ID)
			}
			return setProps(pg.OID(oid), d.Props)
		}
		from, _, err := resolveNode(d.From, nil)
		if err != nil {
			return err
		}
		to, _, err := resolveNode(d.To, nil)
		if err != nil {
			return err
		}
		eprops := pg.PropMap(d.Props)
		fp := edgeFingerprint(d.Label, from, to, eprops)
		if edgeSeen[fp] {
			return nil
		}
		edgeSeen[fp] = true
		if _, err := g.AddEdge(from, to, d.Label, eprops); err != nil {
			return err
		}
		stats.EdgesCreated++
		return nil
	})
	return stats, err
}
