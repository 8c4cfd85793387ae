package vadalog

import "fmt"

// The textual Vadalog syntax accepted by Parse:
//
//	% company control, Example 4.2 of the paper
//	controls(X,X) :- company(X).
//	controls(X,Y) :- controls(X,Z), owns(Z,Y,W), V = msum(W,<Z>), V > 0.5.
//	@output("controls").
//
// Identifiers in term position are always variables ("_" is anonymous);
// constants are quoted strings, numbers, or true/false. Head terms may be
// explicit linker Skolem functors, written #name(X,Y). A head variable that
// does not occur in the body is existentially quantified.

// vadalogSyntax is Vadalog's operator and punctuation set for the shared
// scanner (see syntax.go).
var vadalogSyntax = Syntax{
	Operators: []string{":-", "!=", "<=", ">=", "=="},
	Punct:     "()[]<>,.@#=+-*/",
}

type parser struct {
	*Parser
	fresh int // counter for anonymous variables
}

// Parse parses a Vadalog program from its textual form.
func Parse(src string) (*Program, error) {
	prog, err := parseProgram(src)
	if err != nil {
		return nil, fmt.Errorf("vadalog: %w", err)
	}
	return prog, nil
}

func parseProgram(src string) (*Program, error) {
	core, err := NewParser(src, vadalogSyntax)
	if err != nil {
		return nil, err
	}
	p := &parser{Parser: core}
	prog := &Program{}
	for p.Peek().Kind != TokEOF {
		if p.At("@") {
			ann, err := p.ParseAnnotation()
			if err != nil {
				return nil, err
			}
			prog.Annotations = append(prog.Annotations, ann)
			continue
		}
		rule, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, rule)
	}
	return prog, nil
}

// MustParse is Parse for programs embedded in the framework itself; it panics
// on syntax errors, which indicate a bug in the embedded program.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *parser) parseRule() (Rule, error) {
	line := p.Peek().Line
	var heads []Atom
	for {
		a, err := p.parseAtom()
		if err != nil {
			return Rule{}, err
		}
		heads = append(heads, a)
		if !p.At(",") {
			break
		}
		p.Advance()
	}
	r := Rule{Head: heads, Line: line}
	t := p.Advance()
	if t.Is(".") {
		return r, nil // fact
	}
	if !t.Is(":-") {
		return Rule{}, fmt.Errorf("line %d: expected :- or . after rule head, got %q", t.Line, t.Text)
	}
	for {
		lit, err := p.parseBodyLiteral()
		if err != nil {
			return Rule{}, err
		}
		r.Body = append(r.Body, lit)
		t := p.Advance()
		if t.Is(",") {
			continue
		}
		if t.Is(".") {
			return r, nil
		}
		return Rule{}, fmt.Errorf("line %d: expected , or . in rule body, got %q", t.Line, t.Text)
	}
}

func (p *parser) parseBodyLiteral() (Literal, error) {
	t := p.Peek()
	if t.Kind == TokIdent && t.Text == "not" && p.PeekAt(1).Kind == TokIdent {
		p.Advance()
		a, err := p.parseAtom()
		if err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitNegAtom, Atom: a}, nil
	}
	// IDENT '(' is an atom unless IDENT names a builtin function or
	// aggregate operator.
	if t.Kind == TokIdent && p.PeekAt(1).Is("(") {
		_, isFn := builtinFuncs[t.Text]
		_, isAgg := aggregateOps[t.Text]
		if !isFn && !isAgg {
			a, err := p.parseAtom()
			if err != nil {
				return Literal{}, err
			}
			return Literal{Kind: LitAtom, Atom: a}, nil
		}
	}
	e, err := p.ParseExpr()
	if err != nil {
		return Literal{}, err
	}
	return Literal{Kind: LitExpr, Expr: e}, nil
}

func (p *parser) parseAtom() (Atom, error) {
	name := p.Advance()
	if name.Kind != TokIdent {
		return Atom{}, fmt.Errorf("line %d: expected predicate name, got %q", name.Line, name.Text)
	}
	args, err := p.parseTermList("atom")
	return Atom{Pred: name.Text, Args: args}, err
}

// parseTermList parses "(" [term ("," term)*] ")".
func (p *parser) parseTermList(what string) ([]Term, error) {
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	if p.At(")") {
		p.Advance()
		return nil, nil
	}
	var args []Term
	for {
		term, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		args = append(args, term)
		t := p.Advance()
		if t.Is(",") {
			continue
		}
		if t.Is(")") {
			return args, nil
		}
		return nil, fmt.Errorf("line %d: expected , or ) in %s, got %q", t.Line, what, t.Text)
	}
}

func (p *parser) parseTerm() (Term, error) {
	if p.At("#") {
		p.Advance()
		name := p.Advance()
		if name.Kind != TokIdent {
			return nil, fmt.Errorf("line %d: expected Skolem functor name after #", name.Line)
		}
		args, err := p.parseTermList("Skolem term")
		if err != nil {
			return nil, err
		}
		return SkolemTerm{Functor: name.Text, Args: args}, nil
	}
	name, c, err := p.ParseTerm()
	switch {
	case err != nil:
		return nil, err
	case name == "_":
		p.fresh++
		return Var{Name: fmt.Sprintf("_anon%d", p.fresh)}, nil
	case name != "":
		return Var{Name: name}, nil
	}
	return Const{c}, nil
}
