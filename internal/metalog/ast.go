// Package metalog implements MetaLog, the language the paper proposes for
// the intensional component of Knowledge Graphs and for the schema
// translation mappings (Section 4).
//
// MetaLog combines Warded Datalog± (the core of Vadalog) with property-graph
// pattern matching: rules are existential rules whose bodies are
// conjunctions of PG node atoms, path patterns, conditions and expressions,
// and whose heads are conjunctions of PG node atoms and single-step path
// patterns.
//
// The textual syntax used by this package mirrors the paper's mathematical
// notation:
//
//	(x: Business) [: CONTROLS] (z: Business)
//	    [: OWNS; percentage: w] (y: Business),
//	    v = sum(w, <z>), v > 0.5
//	    -> (x) [c: CONTROLS] (y).
//
// Path patterns are regular expressions over edge atoms: juxtaposition or
// "." is concatenation, "|" is alternation, a postfix "-" inverts an edge
// atom (or group), "*" is reflexive-transitive repetition and "+" is the
// one-or-more repetition that the paper's β-rule translation produces. The
// paper's Example 4.3 reads, in this syntax:
//
//	(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])* (y: SM_Node)
//	    -> (x) [w: DESCFROM] (y).
//
// The MTV compiler (translate.go) lowers MetaLog programs to Vadalog
// following the three translation phases of Section 4.
package metalog

import (
	"strings"

	"repro/internal/vadalog"
	"repro/internal/value"
)

// Ident is the identifier of a node or edge atom: a variable, an explicit
// linker Skolem functor application, or nothing (anonymous).
type Ident struct {
	Var     string   // variable name, "" if anonymous or Skolem
	Functor string   // Skolem functor name, "" if variable/anonymous
	SkArgs  []string // Skolem argument variable names
}

// IsAnon reports whether the identifier was omitted.
func (id Ident) IsAnon() bool { return id.Var == "" && id.Functor == "" }

// IsSkolem reports whether the identifier is a Skolem functor application.
func (id Ident) IsSkolem() bool { return id.Functor != "" }

func (id Ident) String() string {
	if id.Functor != "" {
		return "#" + id.Functor + "(" + strings.Join(id.SkArgs, ",") + ")"
	}
	return id.Var
}

// PropBinding is one named term "name: x" or "name: const" of a PG atom's
// tuple K (Section 4).
type PropBinding struct {
	Name    string
	IsConst bool
	Const   value.Value
	Var     string
}

func (p PropBinding) String() string {
	if p.IsConst {
		return p.Name + ": " + p.Const.Literal()
	}
	return p.Name + ": " + p.Var
}

func propsString(props []PropBinding) string {
	if len(props) == 0 {
		return ""
	}
	parts := make([]string, len(props))
	for i, p := range props {
		parts[i] = p.String()
	}
	return "; " + strings.Join(parts, ", ")
}

// NodeAtom is a PG node atom (x: L; K).
type NodeAtom struct {
	ID    Ident
	Label string // "" when omitted: matches any node
	Props []PropBinding
}

func (n NodeAtom) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(n.ID.String())
	if n.Label != "" {
		if !n.ID.IsAnon() {
			b.WriteByte(' ')
		}
		b.WriteString(": ")
		b.WriteString(n.Label)
	}
	b.WriteString(propsString(n.Props))
	b.WriteByte(')')
	return b.String()
}

// EdgeAtom is a PG edge atom [x: L; K], possibly inverted by a postfix "-".
type EdgeAtom struct {
	ID      Ident
	Label   string
	Props   []PropBinding
	Inverse bool
}

func (e EdgeAtom) String() string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(e.ID.String())
	if e.Label != "" {
		if !e.ID.IsAnon() {
			b.WriteByte(' ')
		}
		b.WriteString(": ")
		b.WriteString(e.Label)
	}
	b.WriteString(propsString(e.Props))
	b.WriteByte(']')
	if e.Inverse {
		b.WriteByte('-')
	}
	return b.String()
}

// PathExpr is a regular expression over edge atoms (the alphabet A of
// Section 4).
type PathExpr interface {
	isPathExpr()
	String() string
}

// Step is a single edge-atom traversal.
type Step struct{ Edge EdgeAtom }

func (Step) isPathExpr()      {}
func (s Step) String() string { return s.Edge.String() }

// Concat is the concatenation S1 · S2 · … of path expressions.
type Concat struct{ Parts []PathExpr }

func (Concat) isPathExpr() {}

// String parenthesizes the sequence: the "." separator is only grammatical
// inside a group, so a bare "a . b" would not reparse at chain level.
func (c Concat) String() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " . ") + ")"
}

// Alt is the alternation (S | T | …).
type Alt struct{ Branches []PathExpr }

func (Alt) isPathExpr() {}
func (a Alt) String() string {
	parts := make([]string, len(a.Branches))
	for i, p := range a.Branches {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// Repeat is (S)* (zero or more; Plus false) or (S)+ (one or more; Plus true).
// The paper's β-rule translation natively produces the one-or-more closure;
// the zero-step case of "*" is compiled by duplicating the rule with unified
// endpoints.
type Repeat struct {
	Inner PathExpr
	Plus  bool
}

func (Repeat) isPathExpr() {}
func (r Repeat) String() string {
	op := "*"
	if r.Plus {
		op = "+"
	}
	return "(" + r.Inner.String() + ")" + op
}

// Inv is the inverse (S)- of a grouped path expression. Single edge atoms
// carry their inversion on the atom itself.
type Inv struct{ Inner PathExpr }

func (Inv) isPathExpr()      {}
func (i Inv) String() string { return "(" + i.Inner.String() + ")-" }

// Chain is an alternating sequence of node atoms and path expressions:
// n0 R1 n1 R2 n2 …, with len(Nodes) == len(Paths)+1.
type Chain struct {
	Nodes []NodeAtom
	Paths []PathExpr
}

func (c Chain) String() string {
	var b strings.Builder
	for i, n := range c.Nodes {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n.String())
		if i < len(c.Paths) {
			b.WriteByte(' ')
			b.WriteString(c.Paths[i].String())
		}
	}
	return b.String()
}

// BodyElem is one conjunct of a rule body.
type BodyElem struct {
	Kind  BodyKind
	Chain Chain         // BodyChain / BodyNegChain
	Expr  *vadalog.Expr // BodyExpr: condition or assignment
}

// BodyKind discriminates body conjunct forms.
type BodyKind uint8

// Body conjunct kinds.
const (
	BodyChain BodyKind = iota
	BodyNegChain
	BodyExpr
)

func (b BodyElem) String() string {
	switch b.Kind {
	case BodyChain:
		return b.Chain.String()
	case BodyNegChain:
		return "not " + b.Chain.String()
	default:
		return b.Expr.String()
	}
}

// Rule is a MetaLog existential rule: body -> head.
type Rule struct {
	Body []BodyElem
	Head []Chain // head chains contain only single-step paths
	Line int
}

func (r Rule) String() string {
	bodies := make([]string, len(r.Body))
	for i, b := range r.Body {
		bodies[i] = b.String()
	}
	heads := make([]string, len(r.Head))
	for i, h := range r.Head {
		heads[i] = h.String()
	}
	return strings.Join(bodies, ", ") + " -> " + strings.Join(heads, ", ") + "."
}

// Program is a set of MetaLog rules with annotations.
type Program struct {
	Rules       []Rule
	Annotations []vadalog.Annotation
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, a := range p.Annotations {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}
