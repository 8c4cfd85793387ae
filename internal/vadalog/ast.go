// Package vadalog implements a Warded Datalog± reasoning engine in the style
// of the Vadalog System that the paper uses as its execution substrate
// (Section 4, "Relational Foundations and Vadalog").
//
// The engine supports:
//
//   - existential rules φ(x,y) → ∃z ψ(x,z), with existentials realized by
//     frontier-keyed Skolemization (the restricted chase) and with the
//     explicit linker Skolem functors of Section 4;
//   - recursion with semi-naive (delta) fixpoint evaluation;
//   - stratified negation;
//   - stratified aggregation (sum, count, min, max, avg, prod, pack) and
//     monotonic aggregation (msum, mcount, mmin, mmax — written
//     sum(W,<Z>) etc. in the paper's Example 4.1/4.2);
//   - conditions and expressions over a function library;
//   - @input/@output annotations binding predicates to external sources.
//
// Static analysis (analysis.go) provides the dependency graph,
// stratification, and the wardedness and piecewise-linearity checks that
// guarantee decidability and PTIME data complexity for the programs the
// framework generates.
package vadalog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Term is an argument of an atom: a variable, a constant, or a Skolem term.
type Term interface {
	isTerm()
	String() string
}

// Var is a (regular) variable. The blank variable "_" is expanded to a fresh
// variable by the parser, so engine code never sees it.
type Var struct{ Name string }

func (Var) isTerm()          {}
func (v Var) String() string { return v.Name }

// Const is a constant from the domain C (or a labeled null / Skolem id when
// facts are fed back into rules).
type Const struct{ Value value.Value }

func (Const) isTerm()          {}
func (c Const) String() string { return c.Value.Literal() }

// SkolemTerm is an explicit linker Skolem functor application #name(args),
// usable in rule heads (Section 4, "Linker Skolem Functors"). Its arguments
// must be universally quantified variables or constants.
type SkolemTerm struct {
	Functor string
	Args    []Term
}

func (SkolemTerm) isTerm() {}
func (s SkolemTerm) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	return "#" + s.Functor + "(" + strings.Join(parts, ",") + ")"
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Vars returns the distinct variable names in the atom, in first-occurrence
// order.
func (a Atom) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range a.Args {
		if v, ok := t.(Var); ok && !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
	}
	return out
}

// Literal is one element of a rule body: a positive atom, a negated atom, or
// an expression literal (condition or assignment — which of the two is
// decided during compilation, based on whether the left-hand variable is
// already bound).
type Literal struct {
	Kind LiteralKind
	Atom Atom  // for LitAtom, LitNegAtom
	Expr *Expr // for LitExpr: a boolean condition or Var = Expr equation
}

// LiteralKind discriminates body literal forms.
type LiteralKind uint8

// Literal kinds.
const (
	LitAtom LiteralKind = iota
	LitNegAtom
	LitExpr
)

func (l Literal) String() string {
	switch l.Kind {
	case LitAtom:
		return l.Atom.String()
	case LitNegAtom:
		return "not " + l.Atom.String()
	default:
		return l.Expr.String()
	}
}

// Rule is an existential rule body → head. Head variables that do not occur
// in the body are existentially quantified; the engine realizes them with
// frontier-keyed Skolem functors unless the head uses an explicit SkolemTerm.
type Rule struct {
	Head []Atom
	Body []Literal
	// Line is the 1-based source line of the rule, for diagnostics.
	Line int
	// FirstMatchOnly stops the body traversal after the first complete match
	// per binding of the leading atom. It is never set by the parser: the
	// DRed re-derivation transformation (delta.go) sets it on guard-fronted
	// variants, where the guard binds every variable of the guarded head and
	// one witness therefore suffices to re-derive the fact.
	FirstMatchOnly bool
}

func (r Rule) String() string {
	heads := make([]string, len(r.Head))
	for i, h := range r.Head {
		heads[i] = h.String()
	}
	bodies := make([]string, len(r.Body))
	for i, b := range r.Body {
		bodies[i] = b.String()
	}
	if len(bodies) == 0 {
		return strings.Join(heads, ", ") + "."
	}
	return strings.Join(heads, ", ") + " :- " + strings.Join(bodies, ", ") + "."
}

// BodyVars returns the distinct variables occurring in positive body atoms,
// in first-occurrence order.
func (r Rule) BodyVars() []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range r.Body {
		if l.Kind != LitAtom {
			continue
		}
		for _, v := range l.Atom.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// HeadVars returns the distinct variables occurring in head atoms (including
// inside explicit Skolem terms), in first-occurrence order.
func (r Rule) HeadVars() []string {
	var out []string
	seen := map[string]bool{}
	var walk func(t Term)
	walk = func(t Term) {
		switch t := t.(type) {
		case Var:
			if !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		case SkolemTerm:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	for _, h := range r.Head {
		for _, t := range h.Args {
			walk(t)
		}
	}
	return out
}

// ExistentialVars returns the head variables not bound by the body (the ∃z
// tuple of the rule), excluding variables assigned by expression literals.
func (r Rule) ExistentialVars() []string {
	bound := map[string]bool{}
	for _, v := range r.BodyVars() {
		bound[v] = true
	}
	for _, l := range r.Body {
		if l.Kind == LitExpr {
			if v, ok := l.Expr.assignTarget(); ok {
				bound[v] = true
			}
		}
	}
	var out []string
	for _, v := range r.HeadVars() {
		if !bound[v] {
			out = append(out, v)
		}
	}
	return out
}

// Annotation is a directive such as
//
//	@input("owns", "csv", "owns.csv").
//	@output("controls").
//	@bind("SM_Node", "pg", "dictionary").
//
// Annotations carry the name of the directive and its string arguments; their
// interpretation is up to the runtime bindings (see Bindings in engine.go).
type Annotation struct {
	Name string
	Args []string
	Line int
}

func (a Annotation) String() string {
	parts := make([]string, len(a.Args))
	for i, s := range a.Args {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return "@" + a.Name + "(" + strings.Join(parts, ",") + ")."
}

// Program is a set of rules plus annotations, as defined in Section 4.
type Program struct {
	Rules       []Rule
	Annotations []Annotation
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

// Outputs returns the predicates marked with @output annotations, sorted.
func (p *Program) Outputs() []string {
	var out []string
	for _, a := range p.Annotations {
		if a.Name == "output" && len(a.Args) >= 1 {
			out = append(out, a.Args[0])
		}
	}
	sort.Strings(out)
	return out
}

// Inputs returns the @input annotations.
func (p *Program) Inputs() []Annotation {
	var out []Annotation
	for _, a := range p.Annotations {
		if a.Name == "input" {
			out = append(out, a)
		}
	}
	return out
}

// EDBPredicates returns the predicates that occur in rule bodies but never in
// rule heads — the extensional database the program reads from.
func (p *Program) EDBPredicates() []string {
	inHead := map[string]bool{}
	for _, r := range p.Rules {
		for _, h := range r.Head {
			inHead[h.Pred] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Kind == LitAtom || l.Kind == LitNegAtom {
				if !inHead[l.Atom.Pred] && !seen[l.Atom.Pred] {
					seen[l.Atom.Pred] = true
					out = append(out, l.Atom.Pred)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// IDBPredicates returns the predicates defined by rule heads, sorted.
func (p *Program) IDBPredicates() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range p.Rules {
		for _, h := range r.Head {
			if !seen[h.Pred] {
				seen[h.Pred] = true
				out = append(out, h.Pred)
			}
		}
	}
	sort.Strings(out)
	return out
}
