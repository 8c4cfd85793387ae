// Package supermodel implements the meta-level data representation of
// KGModel (Section 3 of the paper): the meta-model, the super-model with its
// super-constructs (SM_Node, SM_Edge, SM_Attribute, SM_Type,
// SM_Generalization, attribute modifiers), and super-schemas — instances of
// the super-model that describe the extensional component of a Knowledge
// Graph in a model-independent way.
//
// Super-schemas exist in two interchangeable forms: a typed Go API (this
// file), convenient for programmatic construction and validation, and a
// property-graph dictionary encoding (dictionary.go) over which the MetaLog
// translation mappings of Section 5 operate.
package supermodel

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// DataType is the domain of an SM_Attribute.
type DataType string

// The attribute data types. Date is represented as an ISO-8601 string at the
// instance level.
const (
	String DataType = "string"
	Int    DataType = "int"
	Float  DataType = "float"
	Bool   DataType = "bool"
	Date   DataType = "date"
)

// ValidDataType reports whether t is a known data type.
func ValidDataType(t DataType) bool {
	switch t {
	case String, Int, Float, Bool, Date:
		return true
	}
	return false
}

// Modifier is an SM_AttributeModifier: supplementary information enriching
// an attribute with formatting or domain constraints (Section 3.2). Each
// concrete modifier corresponds to a super-construct of its own.
type Modifier interface {
	// Kind returns the modifier's super-construct name, e.g.
	// "SM_UniqueAttributeModifier".
	Kind() string
	// Describe renders the modifier's payload for dictionaries and
	// diagnostics.
	Describe() string
}

// UniqueModifier prescribes that an attribute has a unique value among the
// nodes with the same SM_Type (the paper's SM_UniqeAttributeModifier).
type UniqueModifier struct{}

// Kind implements Modifier.
func (UniqueModifier) Kind() string { return "SM_UniqueAttributeModifier" }

// Describe implements Modifier.
func (UniqueModifier) Describe() string { return "unique" }

// EnumModifier lists all the values an attribute may take.
type EnumModifier struct{ Values []string }

// Kind implements Modifier.
func (EnumModifier) Kind() string { return "SM_EnumAttributeModifier" }

// Describe implements Modifier.
func (m EnumModifier) Describe() string { return "enum(" + strings.Join(m.Values, ",") + ")" }

// RangeModifier constrains a numeric attribute to [Min, Max].
type RangeModifier struct{ Min, Max float64 }

// Kind implements Modifier.
func (RangeModifier) Kind() string { return "SM_RangeAttributeModifier" }

// Describe implements Modifier.
func (m RangeModifier) Describe() string { return fmt.Sprintf("range(%g,%g)", m.Min, m.Max) }

// DefaultModifier supplies a default value (as its textual form).
type DefaultModifier struct{ Value string }

// Kind implements Modifier.
func (DefaultModifier) Kind() string { return "SM_DefaultAttributeModifier" }

// Describe implements Modifier.
func (m DefaultModifier) Describe() string { return "default(" + m.Value + ")" }

// Attribute is an SM_Attribute: a property of a node or edge that has no
// identity of its own (Section 3.2). Identifying attributes (IsID) form the
// single identifier of their SM_Node.
type Attribute struct {
	Name  string
	Type  DataType
	IsID  bool
	IsOpt bool
	// IsIntensional marks derived properties (the paper's intensional
	// numberOfStakeholders, for instance). Per Figure 3, the flag lives on
	// the SM_HAS_NODE_PROPERTY / SM_HAS_EDGE_PROPERTY link in the
	// dictionary encoding.
	IsIntensional bool
	Modifiers     []Modifier
}

func (a *Attribute) String() string {
	s := a.Name + ": " + string(a.Type)
	if a.IsID {
		s += " @id"
	}
	if a.IsOpt {
		s += " @opt"
	}
	return s
}

// Attr builds an attribute; chain ID/Opt/With for markers and modifiers.
func Attr(name string, t DataType) *Attribute { return &Attribute{Name: name, Type: t} }

// ID marks the attribute as identifying and returns it.
func (a *Attribute) ID() *Attribute { a.IsID = true; return a }

// Opt marks the attribute as optional and returns it.
func (a *Attribute) Opt() *Attribute { a.IsOpt = true; return a }

// With appends a modifier and returns the attribute.
func (a *Attribute) With(m Modifier) *Attribute { a.Modifiers = append(a.Modifiers, m); return a }

// Intensional marks the attribute as derived by reasoning and returns it.
func (a *Attribute) Intensional() *Attribute { a.IsIntensional = true; return a }

// Node is an SM_Node: a relevant domain object with its own identity, type
// and distinguishing properties. Intensional nodes are derived by the
// reasoning process rather than stored in the ground data.
type Node struct {
	Name          string
	IsIntensional bool
	Attributes    []*Attribute
}

// Attribute returns the node's attribute with the given name, or nil.
func (n *Node) Attribute(name string) *Attribute {
	for _, a := range n.Attributes {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Cardinality is one side of an SM_Edge's participation constraint.
// Min is 0 or 1 (optional vs mandatory participation), Max1 caps the number
// of connections at one. These encode the paper's isOpt/isFun flags.
type Cardinality struct {
	Min  int // 0 or 1
	Max1 bool
}

func (c Cardinality) String() string {
	max := "N"
	if c.Max1 {
		max = "1"
	}
	return fmt.Sprintf("%d..%s", c.Min, max)
}

// Common cardinalities.
var (
	ZeroToMany = Cardinality{Min: 0, Max1: false}
	ZeroToOne  = Cardinality{Min: 0, Max1: true}
	OneToMany  = Cardinality{Min: 1, Max1: false}
	ExactlyOne = Cardinality{Min: 1, Max1: true}
)

// ParseCardinality parses "0..N", "1..1", "0..1" or "1..N".
func ParseCardinality(s string) (Cardinality, error) {
	switch s {
	case "0..N", "0..n", "0..*":
		return ZeroToMany, nil
	case "0..1":
		return ZeroToOne, nil
	case "1..N", "1..n", "1..*":
		return OneToMany, nil
	case "1..1":
		return ExactlyOne, nil
	}
	return Cardinality{}, fmt.Errorf("supermodel: bad cardinality %q (want 0..1, 1..1, 0..N or 1..N)", s)
}

// Edge is an SM_Edge: a binary aggregation of two SM_Nodes. FromCard
// constrains how many edges of this type a single source instance may have,
// ToCard how many a single target instance may have. Super-schemas are
// simple graphs by construction: every SM_Edge has one single SM_Type, so
// edge names are unique.
type Edge struct {
	Name          string
	IsIntensional bool
	From, To      string
	FromCard      Cardinality
	ToCard        Cardinality
	Attributes    []*Attribute
}

// IsManyToMany reports whether neither side is capped at one connection.
func (e *Edge) IsManyToMany() bool { return !e.FromCard.Max1 && !e.ToCard.Max1 }

// IsOneToMany reports whether each target instance has at most one edge
// while sources may have many (a functional dependency target -> source).
func (e *Edge) IsOneToMany() bool { return !e.FromCard.Max1 && e.ToCard.Max1 }

// IsManyToOne reports whether each source instance has at most one edge
// while targets may have many.
func (e *Edge) IsManyToOne() bool { return e.FromCard.Max1 && !e.ToCard.Max1 }

// IsOneToOne reports whether both sides are capped at one.
func (e *Edge) IsOneToOne() bool { return e.FromCard.Max1 && e.ToCard.Max1 }

// Attribute returns the edge's attribute with the given name, or nil.
func (e *Edge) Attribute(name string) *Attribute {
	for _, a := range e.Attributes {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Generalization is an SM_Generalization: the specialization-abstraction
// relationship between a parent node and its children (Section 3.2). Total:
// every parent instance is an instance of some child. Disjoint: parent
// instances belong to at most one child.
type Generalization struct {
	Name       string // optional; defaults to parent name + "Kind"
	Parent     string
	Children   []string
	IsTotal    bool
	IsDisjoint bool
}

// Schema is a super-schema: an instance of the super-model describing a
// domain (Section 3.2). OID is the schemaOID used to select it inside graph
// dictionaries.
type Schema struct {
	Name string
	OID  int64

	Nodes           []*Node
	Edges           []*Edge
	Generalizations []*Generalization

	nodeIndex map[string]*Node
	edgeIndex map[string]*Edge
}

// NewSchema returns an empty super-schema with the given name and schemaOID.
func NewSchema(name string, oid int64) *Schema {
	return &Schema{
		Name:      name,
		OID:       oid,
		nodeIndex: map[string]*Node{},
		edgeIndex: map[string]*Edge{},
	}
}

// Node returns the node with the given type name, or nil.
func (s *Schema) Node(name string) *Node { return s.nodeIndex[name] }

// Edge returns the edge with the given type name, or nil.
func (s *Schema) Edge(name string) *Edge { return s.edgeIndex[name] }

// AddNode adds an SM_Node to the schema.
func (s *Schema) AddNode(name string, intensional bool, attrs ...*Attribute) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("supermodel: node name cannot be empty")
	}
	if s.nodeIndex[name] != nil || s.edgeIndex[name] != nil {
		return nil, fmt.Errorf("supermodel: type name %s already in use", name)
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if !ValidDataType(a.Type) {
			return nil, fmt.Errorf("supermodel: attribute %s.%s has unknown type %q", name, a.Name, a.Type)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("supermodel: duplicate attribute %s.%s", name, a.Name)
		}
		if a.IsID && a.IsOpt {
			return nil, fmt.Errorf("supermodel: attribute %s.%s cannot be both identifying and optional", name, a.Name)
		}
		seen[a.Name] = true
	}
	n := &Node{Name: name, IsIntensional: intensional, Attributes: attrs}
	s.Nodes = append(s.Nodes, n)
	s.nodeIndex[name] = n
	return n, nil
}

// MustAddNode is AddNode that panics on error, for statically known schemas.
func (s *Schema) MustAddNode(name string, intensional bool, attrs ...*Attribute) *Node {
	n, err := s.AddNode(name, intensional, attrs...)
	if err != nil {
		panic(err)
	}
	return n
}

// AddEdge adds an SM_Edge between two declared nodes.
func (s *Schema) AddEdge(name string, intensional bool, from, to string, fromCard, toCard Cardinality, attrs ...*Attribute) (*Edge, error) {
	if name == "" {
		return nil, fmt.Errorf("supermodel: edge name cannot be empty")
	}
	if s.nodeIndex[name] != nil || s.edgeIndex[name] != nil {
		return nil, fmt.Errorf("supermodel: type name %s already in use", name)
	}
	if s.nodeIndex[from] == nil {
		return nil, fmt.Errorf("supermodel: edge %s: unknown source node %s", name, from)
	}
	if s.nodeIndex[to] == nil {
		return nil, fmt.Errorf("supermodel: edge %s: unknown target node %s", name, to)
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if !ValidDataType(a.Type) {
			return nil, fmt.Errorf("supermodel: attribute %s.%s has unknown type %q", name, a.Name, a.Type)
		}
		if a.IsID {
			return nil, fmt.Errorf("supermodel: edge attribute %s.%s cannot be identifying", name, a.Name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("supermodel: duplicate attribute %s.%s", name, a.Name)
		}
		seen[a.Name] = true
	}
	e := &Edge{
		Name: name, IsIntensional: intensional,
		From: from, To: to,
		FromCard: fromCard, ToCard: toCard,
		Attributes: attrs,
	}
	s.Edges = append(s.Edges, e)
	s.edgeIndex[name] = e
	return e, nil
}

// MustAddEdge is AddEdge that panics on error.
func (s *Schema) MustAddEdge(name string, intensional bool, from, to string, fromCard, toCard Cardinality, attrs ...*Attribute) *Edge {
	e, err := s.AddEdge(name, intensional, from, to, fromCard, toCard, attrs...)
	if err != nil {
		panic(err)
	}
	return e
}

// AddGeneralization adds an SM_Generalization.
func (s *Schema) AddGeneralization(name, parent string, children []string, total, disjoint bool) (*Generalization, error) {
	if s.nodeIndex[parent] == nil {
		return nil, fmt.Errorf("supermodel: generalization: unknown parent node %s", parent)
	}
	if len(children) == 0 {
		return nil, fmt.Errorf("supermodel: generalization of %s has no children", parent)
	}
	seen := map[string]bool{}
	for _, c := range children {
		if s.nodeIndex[c] == nil {
			return nil, fmt.Errorf("supermodel: generalization of %s: unknown child node %s", parent, c)
		}
		if c == parent {
			return nil, fmt.Errorf("supermodel: generalization of %s cannot contain itself", parent)
		}
		if seen[c] {
			return nil, fmt.Errorf("supermodel: generalization of %s: duplicate child %s", parent, c)
		}
		seen[c] = true
	}
	if name == "" {
		name = parent + "Kind"
	}
	g := &Generalization{Name: name, Parent: parent, Children: children, IsTotal: total, IsDisjoint: disjoint}
	s.Generalizations = append(s.Generalizations, g)
	return g, nil
}

// MustAddGeneralization is AddGeneralization that panics on error.
func (s *Schema) MustAddGeneralization(name, parent string, children []string, total, disjoint bool) *Generalization {
	g, err := s.AddGeneralization(name, parent, children, total, disjoint)
	if err != nil {
		panic(err)
	}
	return g
}

// Parents returns the direct parents of a node across all generalizations,
// sorted.
func (s *Schema) Parents(node string) []string {
	var out []string
	for _, g := range s.Generalizations {
		for _, c := range g.Children {
			if c == node {
				out = append(out, g.Parent)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Children returns the direct children of a node across all generalizations,
// sorted.
func (s *Schema) Children(node string) []string {
	var out []string
	for _, g := range s.Generalizations {
		if g.Parent == node {
			out = append(out, g.Children...)
		}
	}
	sort.Strings(out)
	return out
}

// Ancestors returns every transitive ancestor of a node, sorted.
func (s *Schema) Ancestors(node string) []string {
	seen := map[string]bool{}
	var visit func(n string)
	visit = func(n string) {
		for _, p := range s.Parents(n) {
			if !seen[p] {
				seen[p] = true
				visit(p)
			}
		}
	}
	visit(node)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ErrNoSchemaLabel is MostSpecificType's error for a label set that names no
// node of the schema at all — data outside the design, as opposed to data
// the design cannot place.
var ErrNoSchemaLabel = errors.New("no schema label")

// MostSpecificType resolves a data node's label set to the schema node it
// instantiates: the one schema label present that is not an ancestor of any
// other label present (multi-label tagging is resolved against the
// generalization hierarchy). A set with no schema label fails with
// ErrNoSchemaLabel; a set with two unrelated most-specific labels is
// ambiguous and fails too — Algorithm 2's load and instance validation
// decide this here, once.
func (s *Schema) MostSpecificType(labels []string) (string, error) {
	var candidates []string
	for _, l := range labels {
		if s.Node(l) != nil {
			candidates = append(candidates, l)
		}
	}
	if len(candidates) == 0 {
		return "", fmt.Errorf("%w among %v", ErrNoSchemaLabel, labels)
	}
	best := ""
	for _, c := range candidates {
		isAncestorOfOther := false
		for _, o := range candidates {
			if o == c {
				continue
			}
			for _, anc := range s.Ancestors(o) {
				if anc == c {
					isAncestorOfOther = true
				}
			}
		}
		if !isAncestorOfOther {
			if best != "" && best != c {
				return "", fmt.Errorf("ambiguous most-specific type among %v (%s vs %s)", labels, best, c)
			}
			best = c
		}
	}
	return best, nil
}

// Descendants returns every transitive descendant of a node, sorted.
func (s *Schema) Descendants(node string) []string {
	seen := map[string]bool{}
	var visit func(n string)
	visit = func(n string) {
		for _, c := range s.Children(n) {
			if !seen[c] {
				seen[c] = true
				visit(c)
			}
		}
	}
	visit(node)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EffectiveAttributes returns a node's own attributes plus those inherited
// from all its ancestors, own first, each ancestor's in declaration order.
func (s *Schema) EffectiveAttributes(node string) []*Attribute {
	n := s.Node(node)
	if n == nil {
		return nil
	}
	out := append([]*Attribute(nil), n.Attributes...)
	seen := map[string]bool{}
	for _, a := range out {
		seen[a.Name] = true
	}
	for _, anc := range s.Ancestors(node) {
		an := s.Node(anc)
		for _, a := range an.Attributes {
			if !seen[a.Name] {
				seen[a.Name] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// EffectiveIDAttributes returns the identifying attributes of a node,
// searching up the generalization hierarchy when the node does not declare
// its own identifier (children inherit the parent identifier).
func (s *Schema) EffectiveIDAttributes(node string) []*Attribute {
	var out []*Attribute
	for _, a := range s.EffectiveAttributes(node) {
		if a.IsID {
			out = append(out, a)
		}
	}
	return out
}

// Validate checks the structural invariants of the super-schema:
// generalization acyclicity, identifier presence (every extensional node
// must have an identifier, possibly inherited), and referential integrity
// (guaranteed by construction for Add* calls, re-checked for schemas built
// by deserialization).
func (s *Schema) Validate() error {
	// Referential integrity.
	for _, e := range s.Edges {
		if s.Node(e.From) == nil {
			return fmt.Errorf("supermodel: edge %s: unknown source node %s", e.Name, e.From)
		}
		if s.Node(e.To) == nil {
			return fmt.Errorf("supermodel: edge %s: unknown target node %s", e.Name, e.To)
		}
	}
	for _, g := range s.Generalizations {
		if s.Node(g.Parent) == nil {
			return fmt.Errorf("supermodel: generalization %s: unknown parent %s", g.Name, g.Parent)
		}
		for _, c := range g.Children {
			if s.Node(c) == nil {
				return fmt.Errorf("supermodel: generalization %s: unknown child %s", g.Name, c)
			}
		}
	}
	// Generalization acyclicity.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(n string) error
	visit = func(n string) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("supermodel: generalization cycle through %s", n)
		case black:
			return nil
		}
		color[n] = gray
		for _, p := range s.Parents(n) {
			if err := visit(p); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range s.Nodes {
		if err := visit(n.Name); err != nil {
			return err
		}
	}
	// Identifier presence: every extensional node needs an identifier, own
	// or inherited (an SM_Node "always has one single identifier").
	for _, n := range s.Nodes {
		if n.IsIntensional {
			continue
		}
		if len(s.EffectiveIDAttributes(n.Name)) == 0 {
			return fmt.Errorf("supermodel: node %s has no identifying attributes (own or inherited)", n.Name)
		}
	}
	return nil
}

// Stats summarizes the schema for reports.
func (s *Schema) Stats() string {
	intN, intE := 0, 0
	for _, n := range s.Nodes {
		if n.IsIntensional {
			intN++
		}
	}
	for _, e := range s.Edges {
		if e.IsIntensional {
			intE++
		}
	}
	return fmt.Sprintf("%d nodes (%d intensional), %d edges (%d intensional), %d generalizations",
		len(s.Nodes), intN, len(s.Edges), intE, len(s.Generalizations))
}

// rebuildIndexes restores the name indexes after deserialization.
func (s *Schema) rebuildIndexes() {
	s.nodeIndex = map[string]*Node{}
	s.edgeIndex = map[string]*Edge{}
	for _, n := range s.Nodes {
		s.nodeIndex[n.Name] = n
	}
	for _, e := range s.Edges {
		s.edgeIndex[e.Name] = e
	}
}
