package vadalog

import "sort"

// Exported views of the body-literal classification the compiler applies in
// written order (compileProgRule): whether an expression literal would be an
// assignment or a condition, and which variables a literal touches. The
// cost-based planner (internal/plan) reorders rule bodies as a program
// transformation — the same pattern as the Maintainer's DRed programs — and
// needs exactly this classification to know which literals are
// position-sensitive and must pin a rule to its written order.

// AssignTarget reports whether the expression has the form Var = RHS — the
// shape the compiler turns into an assignment when Var is unbound at the
// literal's position — and if so returns the variable name.
func (e *Expr) AssignTarget() (string, bool) { return e.assignTarget() }

// HasAggregate reports whether the expression is an aggregate assignment
// Var = agg(...). Aggregates are evaluated in body-traversal order (their
// contributor multiplicity depends on it), so a rule containing one is
// outside the reorderable class.
func (e *Expr) HasAggregate() bool { return e.findAggregate() != nil }

// VarNames returns the distinct variable names referenced by the expression
// (including aggregate arguments and contributors), sorted.
func (e *Expr) VarNames() []string {
	set := map[string]bool{}
	e.vars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// VarNames returns the distinct variable names a body literal touches:
// atom argument variables for (possibly negated) atoms, referenced
// variables for expression literals. Sorted.
func (l Literal) VarNames() []string {
	switch l.Kind {
	case LitExpr:
		return l.Expr.VarNames()
	default:
		vs := append([]string(nil), l.Atom.Vars()...)
		sort.Strings(vs)
		return vs
	}
}

// CloneRules returns a copy of the program whose rule slice and per-rule
// body slices are fresh, so a transformation pass can reorder and extend
// them without mutating the input. Heads, atoms, terms and annotations are
// shared — transformations treat them as immutable.
func (p *Program) CloneRules() *Program {
	out := &Program{
		Rules:       make([]Rule, len(p.Rules)),
		Annotations: append([]Annotation(nil), p.Annotations...),
	}
	for i, r := range p.Rules {
		r.Body = append([]Literal(nil), r.Body...)
		out.Rules[i] = r
	}
	return out
}
