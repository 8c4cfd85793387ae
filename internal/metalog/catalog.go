package metalog

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/pg"
	"repro/internal/sortedset"
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
// frozen snapshot it costs one pass over the columns and no facade.
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
// The database is sealed (vadalog.Database.Seal): every relation is an
// immutable fact slice in ascending-OID order that clones, engine runs and
// the generations ApplyFactsDelta derives all share by pointer, hash indexes
// included. Nothing is hashed here — within a relation the OID column is
// unique, so the facts are distinct by construction.
func ExtractFacts(g pg.View, cat *Catalog) (*vadalog.Database, error) {
	facts := map[string][]vadalog.Fact{}
	var err error
	add := func(kind string, id pg.OID, pred string, f vadalog.Fact) bool {
		if fs := facts[pred]; len(fs) > 0 && len(fs[0]) != len(f) {
			err = fmt.Errorf("metalog: extracting %s %d: predicate %s used with arity %d and %d", kind, id, pred, len(fs[0]), len(f))
			return false
		}
		facts[pred] = append(facts[pred], f)
		return true
	}
	g.ScanNodes(func(n *pg.NodeRow) bool {
		for i, l := range n.Labels {
			if !cat.HasNode(l) || slices.Contains(n.Labels[:i], l) {
				continue // label outside the catalog's scope, or repeated
			}
			if !add("node", n.ID, l, encode(cat.NodeProps[l], n.Props.Get, n.ID)) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		return !cat.HasEdge(e.Label) ||
			add("edge", e.ID, e.Label, encode(cat.EdgeProps[e.Label], e.Props.Get, e.ID, e.From, e.To))
	})
	if err != nil {
		return nil, err
	}
	db := vadalog.NewDatabase()
	for pred, fs := range facts {
		if err := db.ReplaceFacts(pred, len(fs[0]), fs); err != nil {
			return nil, err
		}
	}
	return db, nil
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
	setProps := func(oid pg.OID, props []PropValue) error {
		n := g.Node(oid)
		for _, p := range props {
			if cur, ok := n.Props[p.Name]; !ok || !value.Equal(cur, p.Value) {
				if err := g.SetNodeProp(oid, p.Name, p.Value); err != nil {
					return err
				}
				stats.PropsSet++
			}
		}
		return nil
	}

	// Existing-edge fingerprints for deduplication.
	edgeSeen := map[string]bool{}
	edgeFingerprint := func(label string, from, to pg.OID, props pg.Props) string {
		s := fmt.Sprintf("%s|%d|%d", label, from, to)
		for _, k := range sortedset.Keys(props) {
			s += "|" + k + "=" + props[k].Canonical()
		}
		return s
	}
	for _, e := range g.Edges() {
		edgeSeen[edgeFingerprint(e.Label, e.From, e.To, e.Props)] = true
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
		eprops := pg.Props{}
		for _, p := range d.Props {
			eprops[p.Name] = p.Value
		}
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
