package metalog

import (
	"fmt"

	"repro/internal/vadalog"
)

// The concrete MetaLog grammar:
//
//	program   := (rule | annotation)*
//	rule      := body "->" head "."
//	body      := bodyElem ("," bodyElem)*
//	bodyElem  := "not" chain | chain | expr
//	head      := chain ("," chain)*
//	chain     := nodeAtom (pathExpr nodeAtom)*
//	nodeAtom  := "(" [ident] [":" label] [";" props] ")"
//	edgeAtom  := "[" [ident] [":" label] [";" props] "]" ["-"]
//	pathExpr  := pathFactor+                        (juxtaposition = concat)
//	pathFactor:= edgeAtom | "(" groupExpr ")" ["-"|"*"|"+"]
//	groupExpr := groupSeq ("|" groupSeq)*
//	groupSeq  := groupItem (["."] groupItem)*       ("." optional, as in the paper)
//	groupItem := edgeAtom | "(" groupExpr ")" ["-"|"*"|"+"]
//	ident     := VAR | "#" functor "(" VAR ("," VAR)* ")"
//	props     := prop ("," prop)*
//	prop      := NAME ":" (VAR | literal)
//
// The "." concatenation separator is accepted only inside parenthesized
// groups, where it cannot collide with the rule terminator.

// metalogSyntax is MetaLog's operator and punctuation set. Everything below
// the rule and atom grammar — tokens, constants, expressions, aggregates,
// annotations — is Vadalog's own parser (vadalog.Parser), so the expressions
// MTV hands to Vadalog are the ones Vadalog itself would have parsed.
var metalogSyntax = vadalog.Syntax{
	Operators: []string{"->", "!=", "<=", ">=", "=="},
	Punct:     "()[]{};:,.<>=+-*/|#@",
}

type parser struct{ *vadalog.Parser }

// newParser scans src for Parse and ParsePattern, which put the "metalog:"
// prefix on every error.
func newParser(src string) (*parser, error) {
	core, err := vadalog.NewParser(src, metalogSyntax)
	return &parser{core}, err
}

// Parse parses a MetaLog program from its textual form.
func Parse(src string) (*Program, error) {
	prog, err := parseProgram(src)
	if err != nil {
		return nil, fmt.Errorf("metalog: %w", err)
	}
	return prog, nil
}

func parseProgram(src string) (*Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.Peek().Kind != vadalog.TokEOF {
		if p.At("@") {
			ann, err := p.ParseAnnotation()
			if err != nil {
				return nil, err
			}
			prog.Annotations = append(prog.Annotations, ann)
			continue
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog, nil
}

// MustParse panics on syntax errors; it is used for the framework's embedded
// mapping programs, where a failure indicates a bug.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *parser) parseRule() (Rule, error) {
	line := p.Peek().Line
	r := Rule{Line: line}
	for {
		elem, err := p.parseBodyElem()
		if err != nil {
			return Rule{}, err
		}
		r.Body = append(r.Body, elem)
		if p.At(",") {
			p.Advance()
			continue
		}
		break
	}
	if _, err := p.Expect("->"); err != nil {
		return Rule{}, err
	}
	for {
		ch, err := p.parseChain()
		if err != nil {
			return Rule{}, err
		}
		if err := validateHeadChain(ch, line); err != nil {
			return Rule{}, err
		}
		r.Head = append(r.Head, ch)
		if p.At(",") {
			p.Advance()
			continue
		}
		break
	}
	if _, err := p.Expect("."); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// validateHeadChain enforces that head path patterns are single edge steps:
// heads construct nodes and edges, they do not navigate.
func validateHeadChain(ch Chain, line int) error {
	for _, pe := range ch.Paths {
		st, ok := pe.(Step)
		if !ok {
			return fmt.Errorf("line %d: head path patterns must be single edge atoms, got %s", line, pe)
		}
		if st.Edge.Inverse {
			return fmt.Errorf("line %d: head edge atoms cannot be inverted", line)
		}
	}
	return nil
}

func (p *parser) parseBodyElem() (BodyElem, error) {
	t := p.Peek()
	if t.Kind == vadalog.TokIdent && t.Text == "not" && p.PeekAt(1).Is("(") {
		p.Advance()
		ch, err := p.parseChain()
		if err != nil {
			return BodyElem{}, err
		}
		if len(ch.Paths) > 1 {
			return BodyElem{}, fmt.Errorf("line %d: negated patterns must be a single node atom or edge step", t.Line)
		}
		return BodyElem{Kind: BodyNegChain, Chain: ch}, nil
	}
	if t.Is("(") {
		// Could be a node atom or a parenthesized expression; try the node
		// atom first and backtrack on failure.
		save := p.Mark()
		ch, err := p.parseChain()
		if err == nil {
			return BodyElem{Kind: BodyChain, Chain: ch}, nil
		}
		p.Reset(save)
	}
	e, err := p.ParseExpr()
	if err != nil {
		return BodyElem{}, err
	}
	return BodyElem{Kind: BodyExpr, Expr: e}, nil
}

// parseChain parses nodeAtom (pathExpr nodeAtom)*.
func (p *parser) parseChain() (Chain, error) {
	n0, err := p.parseNodeAtom()
	if err != nil {
		return Chain{}, err
	}
	ch := Chain{Nodes: []NodeAtom{n0}}
	for {
		// A path factor begins with "[" or with "(" that opens a group; the
		// latter is distinguished from a following node atom by attempting
		// the path parse with backtracking.
		if p.At("[") {
			pe, err := p.parsePathExpr()
			if err != nil {
				return Chain{}, err
			}
			n, err := p.parseNodeAtom()
			if err != nil {
				return Chain{}, err
			}
			ch.Paths = append(ch.Paths, pe)
			ch.Nodes = append(ch.Nodes, n)
			continue
		}
		if p.At("(") {
			save := p.Mark()
			pe, err := p.parsePathExpr()
			if err == nil {
				n, nerr := p.parseNodeAtom()
				if nerr == nil {
					ch.Paths = append(ch.Paths, pe)
					ch.Nodes = append(ch.Nodes, n)
					continue
				}
			}
			p.Reset(save)
		}
		return ch, nil
	}
}

// parsePathExpr parses one or more juxtaposed path factors (top level).
func (p *parser) parsePathExpr() (PathExpr, error) {
	var parts []PathExpr
	for {
		if p.At("[") {
			e, err := p.parseEdgeAtom()
			if err != nil {
				return nil, err
			}
			parts = append(parts, Step{Edge: e})
		} else if p.At("(") {
			// A group is only a path group if it starts a group expression,
			// not a node atom; try and backtrack.
			save := p.Mark()
			g, err := p.parseGroup()
			if err != nil {
				p.Reset(save)
				break
			}
			parts = append(parts, g)
		} else {
			break
		}
		if len(parts) > 0 && !p.At("[") && !p.At("(") {
			break
		}
		// A "(" here might open the next node atom rather than another
		// factor; peek inside: a group starts with "[" or "(".
		if p.At("(") {
			inner := p.PeekAt(1)
			if !inner.Is("[") && !inner.Is("(") {
				break
			}
		}
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("line %d: expected path expression", p.Peek().Line)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Concat{Parts: parts}, nil
}

// parseGroup parses "(" groupExpr ")" with optional postfix "-", "*", "+".
func (p *parser) parseGroup() (PathExpr, error) {
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	inner, err := p.parseGroupExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.At("*"):
			p.Advance()
			inner = Repeat{Inner: inner, Plus: false}
		case p.At("+"):
			p.Advance()
			inner = Repeat{Inner: inner, Plus: true}
		case p.At("-"):
			// Postfix "-" after a group is inversion only when not followed
			// by a term (which would make it binary minus); inside path
			// context this is unambiguous.
			p.Advance()
			inner = Inv{Inner: inner}
		default:
			return inner, nil
		}
	}
}

// parseGroupExpr parses alternation of sequences inside a group; "." is an
// optional concatenation separator here, as in the paper's notation.
func (p *parser) parseGroupExpr() (PathExpr, error) {
	var branches []PathExpr
	for {
		seq, err := p.parseGroupSeq()
		if err != nil {
			return nil, err
		}
		branches = append(branches, seq)
		if p.At("|") {
			p.Advance()
			continue
		}
		break
	}
	if len(branches) == 1 {
		return branches[0], nil
	}
	return Alt{Branches: branches}, nil
}

func (p *parser) parseGroupSeq() (PathExpr, error) {
	var parts []PathExpr
	for {
		if p.At(".") {
			p.Advance()
			continue
		}
		if p.At("[") {
			e, err := p.parseEdgeAtom()
			if err != nil {
				return nil, err
			}
			parts = append(parts, Step{Edge: e})
			continue
		}
		if p.At("(") {
			g, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			parts = append(parts, g)
			continue
		}
		break
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("line %d: empty path group", p.Peek().Line)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Concat{Parts: parts}, nil
}

func (p *parser) parseNodeAtom() (NodeAtom, error) {
	if _, err := p.Expect("("); err != nil {
		return NodeAtom{}, err
	}
	n := NodeAtom{}
	var err error
	n.ID, n.Label, n.Props, err = p.parseAtomInner(")")
	if err != nil {
		return NodeAtom{}, err
	}
	return n, nil
}

func (p *parser) parseEdgeAtom() (EdgeAtom, error) {
	if _, err := p.Expect("["); err != nil {
		return EdgeAtom{}, err
	}
	e := EdgeAtom{}
	var err error
	e.ID, e.Label, e.Props, err = p.parseAtomInner("]")
	if err != nil {
		return EdgeAtom{}, err
	}
	if p.At("-") {
		// Inversion only if the "-" is not the start of an arithmetic
		// expression; after "]" in path position it always is inversion.
		p.Advance()
		e.Inverse = true
	}
	return e, nil
}

// parseAtomInner parses [ident] [":" label] [";" props] up to the closing
// delimiter.
func (p *parser) parseAtomInner(closer string) (Ident, string, []PropBinding, error) {
	var id Ident
	var label string
	var props []PropBinding

	// Identifier (variable or Skolem) if present.
	if p.Peek().Kind == vadalog.TokIdent {
		id.Var = p.Advance().Text
	} else if p.At("#") {
		p.Advance()
		fn := p.Advance()
		if fn.Kind != vadalog.TokIdent {
			return id, "", nil, fmt.Errorf("line %d: expected Skolem functor name", fn.Line)
		}
		id.Functor = fn.Text
		if _, err := p.Expect("("); err != nil {
			return id, "", nil, err
		}
		for {
			v := p.Advance()
			if v.Kind != vadalog.TokIdent {
				return id, "", nil, fmt.Errorf("line %d: Skolem arguments must be variables", v.Line)
			}
			id.SkArgs = append(id.SkArgs, v.Text)
			t := p.Advance()
			if t.Is(",") {
				continue
			}
			if t.Is(")") {
				break
			}
			return id, "", nil, fmt.Errorf("line %d: expected , or ) in Skolem term", t.Line)
		}
	}

	if p.At(":") {
		p.Advance()
		lt := p.Advance()
		if lt.Kind != vadalog.TokIdent {
			return id, "", nil, fmt.Errorf("line %d: expected label after :, got %q", lt.Line, lt.Text)
		}
		label = lt.Text
	}

	if p.At(";") {
		p.Advance()
		for {
			name := p.Advance()
			if name.Kind != vadalog.TokIdent {
				return id, "", nil, fmt.Errorf("line %d: expected property name, got %q", name.Line, name.Text)
			}
			if _, err := p.Expect(":"); err != nil {
				return id, "", nil, err
			}
			v, c, err := p.ParseTerm()
			if err != nil {
				return id, "", nil, err
			}
			props = append(props, PropBinding{Name: name.Text, Var: v, IsConst: v == "", Const: c})
			if !p.At(",") {
				break
			}
			p.Advance()
		}
	}
	if _, err := p.Expect(closer); err != nil {
		return id, "", nil, err
	}
	return id, label, props, nil
}
