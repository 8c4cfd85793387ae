package vadalog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// The front end shared by the framework's rule languages. MetaLog compiles
// to Vadalog (MTV), so its tokens, constants, expressions, aggregates and
// annotations are Vadalog's; the two languages differ only in their rule and
// atom grammar. Each language scans with its own Syntax and drives one
// Parser: the rule grammar lives with the language, everything below the
// rule level is parsed here, once.

// TokenKind classifies a Token.
type TokenKind uint8

const (
	TokEOF TokenKind = iota
	TokIdent
	TokString // Text keeps the quotes and escapes of the source
	TokNumber
	TokPunct // punctuation and operators
)

// Token is one lexical unit with the source line it starts on.
type Token struct {
	Kind TokenKind
	Text string
	Line int
}

// Is reports whether t is the punctuation or operator token text.
func (t Token) Is(text string) bool { return t.Kind == TokPunct && t.Text == text }

// Syntax is what differs lexically between the rule languages: everything
// else (whitespace, % comments, identifiers, numbers, strings) is common.
type Syntax struct {
	Operators []string // multi-character operators, tried in order before Punct
	Punct     string   // single-character punctuation and operators
}

func scan(src string, syn Syntax) ([]Token, error) {
	var toks []Token
	line := 1
	for i := 0; i < len(src); {
		c := src[i]
		start := i
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '%':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			toks = append(toks, Token{TokIdent, src[start:i], line})
		case isDigit(c):
			i = skipDigits(src, i)
			// A '.' is part of the number only if followed by a digit; otherwise
			// it is the rule terminator.
			if i+1 < len(src) && src[i] == '.' && isDigit(src[i+1]) {
				i = skipDigits(src, i+1)
			}
			// An exponent may follow either form (1e+06 as well as 1.5e7 —
			// strconv's shortest float rendering uses the former), but only
			// when digits actually follow; a bare trailing 'e' stays an
			// identifier token.
			if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < len(src) && (src[j] == '+' || src[j] == '-') {
					j++
				}
				if j < len(src) && isDigit(src[j]) {
					i = skipDigits(src, j)
				}
			}
			toks = append(toks, Token{TokNumber, src[start:i], line})
		case c == '"':
			for i++; ; i++ {
				if i >= len(src) || src[i] == '\n' {
					return nil, fmt.Errorf("line %d: unterminated string literal", line)
				}
				if src[i] == '"' {
					break
				}
				if src[i] == '\\' && i+1 < len(src) && src[i+1] != '\n' {
					i++
				}
			}
			i++
			toks = append(toks, Token{TokString, src[start:i], line})
		default:
			op := string(c)
			for _, o := range syn.Operators {
				if strings.HasPrefix(src[i:], o) {
					op = o
					break
				}
			}
			if len(op) == 1 && strings.IndexByte(syn.Punct, c) < 0 {
				return nil, fmt.Errorf("line %d: unexpected character %q", line, op)
			}
			i += len(op)
			toks = append(toks, Token{TokPunct, op, line})
		}
	}
	return append(toks, Token{Kind: TokEOF, Line: line}), nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func skipDigits(src string, i int) int {
	for i < len(src) && isDigit(src[i]) {
		i++
	}
	return i
}

// Parser is a token stream with the productions every rule language shares:
// constants, expressions (with calls and aggregates) and annotations. A
// language embeds it and adds its own rule grammar on top.
type Parser struct {
	toks []Token
	pos  int
}

// NewParser scans src under syn. Errors — here and from every Parse method —
// start with "line N:"; the language adds its own prefix.
func NewParser(src string, syn Syntax) (*Parser, error) {
	toks, err := scan(src, syn)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Key renders the whole scanned token stream canonically: the token texts
// joined by single spaces, string tokens verbatim. Two sources share a key
// exactly when they scan to the same tokens — so whitespace and comments
// between tokens never reach it, a blank inside a string constant always
// does — and the key is itself a source that scans back to those tokens.
func (p *Parser) Key() string {
	var b strings.Builder
	for i, t := range p.toks[:len(p.toks)-1] { // all but EOF
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// Peek returns the current token without consuming it.
func (p *Parser) Peek() Token { return p.PeekAt(0) }

// PeekAt returns the token n positions ahead (EOF past the end).
func (p *Parser) PeekAt(n int) Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return p.toks[len(p.toks)-1]
}

// Advance consumes and returns the current token; EOF is never consumed.
func (p *Parser) Advance() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// At reports whether the current token is the punctuation text.
func (p *Parser) At(text string) bool { return p.Peek().Is(text) }

// Expect consumes the current token, which must be the punctuation text.
func (p *Parser) Expect(text string) (Token, error) {
	t := p.Advance()
	if !t.Is(text) {
		return t, fmt.Errorf("line %d: expected %q, got %q", t.Line, text, t.Text)
	}
	return t, nil
}

// Mark returns the current position, for Reset to backtrack to.
func (p *Parser) Mark() int { return p.pos }

// Reset rewinds the parser to a position obtained from Mark.
func (p *Parser) Reset(mark int) { p.pos = mark }

func isBoolLiteral(t Token) bool { return t.Text == "true" || t.Text == "false" }

// ParseTerm parses a variable or a constant. A variable — any identifier
// but true/false — comes back by name. A constant is a quoted string, a
// number (123, 1.5, 1e6, 1e+06, 2.5E-3) optionally preceded by "-", or
// true/false, and comes back as c with name empty.
func (p *Parser) ParseTerm() (name string, c value.Value, err error) {
	t := p.Advance()
	text := t.Text
	switch {
	case t.Kind == TokIdent && !isBoolLiteral(t):
		return text, value.Value{}, nil
	case t.Kind == TokIdent || t.Kind == TokString || t.Kind == TokNumber:
	case t.Is("-") && p.Peek().Kind == TokNumber:
		text += p.Advance().Text
	default:
		return "", value.Value{}, fmt.Errorf("line %d: expected term, got %q", t.Line, t.Text)
	}
	c, err = value.ParseLiteral(text)
	if err != nil {
		return "", value.Value{}, fmt.Errorf("line %d: %v", t.Line, err)
	}
	return "", c, nil
}

// ParseAnnotation parses @name(arg, ...). with string, identifier or number
// arguments.
func (p *Parser) ParseAnnotation() (Annotation, error) {
	if _, err := p.Expect("@"); err != nil {
		return Annotation{}, err
	}
	name := p.Advance()
	if name.Kind != TokIdent {
		return Annotation{}, fmt.Errorf("line %d: expected annotation name, got %q", name.Line, name.Text)
	}
	ann := Annotation{Name: name.Text, Line: name.Line}
	if _, err := p.Expect("("); err != nil {
		return Annotation{}, err
	}
	for {
		t := p.Advance()
		switch t.Kind {
		case TokString:
			s, err := strconv.Unquote(t.Text)
			if err != nil {
				return Annotation{}, fmt.Errorf("line %d: bad string %s", t.Line, t.Text)
			}
			ann.Args = append(ann.Args, s)
		case TokIdent, TokNumber:
			ann.Args = append(ann.Args, t.Text)
		default:
			return Annotation{}, fmt.Errorf("line %d: expected annotation argument, got %q", t.Line, t.Text)
		}
		t = p.Advance()
		if t.Is(",") {
			continue
		}
		if t.Is(")") {
			break
		}
		return Annotation{}, fmt.Errorf("line %d: expected , or ) in annotation, got %q", t.Line, t.Text)
	}
	if _, err := p.Expect("."); err != nil {
		return Annotation{}, err
	}
	return ann, nil
}

// aggregateOps names the aggregation operators. Operators with the m prefix
// (and any operator given contributor variables in <...>) are monotonic.
var aggregateOps = map[string]string{
	"sum": "sum", "count": "count", "min": "min", "max": "max",
	"avg": "avg", "prod": "prod", "pack": "pack",
	"msum": "sum", "mcount": "count", "mmin": "min", "mmax": "max", "mprod": "prod",
}

func isMonotonicName(name string) bool {
	return strings.HasPrefix(name, "m") && name != "min" && name != "max"
}

// Operator precedence climbing for expressions.
var binaryPrec = map[string]int{
	"or": 1, "and": 2,
	"=": 3, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5,
}

// ParseExpr parses an expression: comparisons, arithmetic, and/or/not,
// function calls and aggregates over variables and constants.
func (p *Parser) ParseExpr() (*Expr, error) { return p.parseBinary(0) }

func (p *Parser) parseBinary(minPrec int) (*Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.Peek()
		if t.Kind != TokPunct && !(t.Kind == TokIdent && (t.Text == "and" || t.Text == "or")) {
			return left, nil
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.Advance()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprBinary, Op: t.Text, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (*Expr, error) {
	t := p.Peek()
	if t.Is("-") || (t.Kind == TokIdent && t.Text == "not") {
		p.Advance()
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ExprUnary, Op: t.Text, Left: operand}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (*Expr, error) {
	t := p.Peek()
	switch {
	case t.Is("("):
		p.Advance()
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent && !isBoolLiteral(t) && p.PeekAt(1).Is("("):
		return p.parseCallOrAggregate()
	case t.Kind == TokIdent || t.Kind == TokString || t.Kind == TokNumber:
		name, v, err := p.ParseTerm()
		if err != nil {
			return nil, err
		}
		if name != "" {
			return &Expr{Kind: ExprVar, Name: name}, nil
		}
		return &Expr{Kind: ExprConst, Val: v}, nil
	default:
		return nil, fmt.Errorf("line %d: expected expression, got %q", t.Line, t.Text)
	}
}

func (p *Parser) parseCallOrAggregate() (*Expr, error) {
	name := p.Advance()
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	if canonical, isAgg := aggregateOps[name.Text]; isAgg {
		return p.parseAggregate(name, canonical)
	}
	call := &Expr{Kind: ExprCall, Name: name.Text}
	if p.At(")") {
		p.Advance()
		return call, nil
	}
	for {
		arg, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		t := p.Advance()
		if t.Is(",") {
			continue
		}
		if t.Is(")") {
			return call, nil
		}
		return nil, fmt.Errorf("line %d: expected , or ) in call, got %q", t.Line, t.Text)
	}
}

// parseAggregate parses sum(W), sum(W,<Z1,Z2>), count(), count(<Z>),
// pack(N,V), msum(W,<Z>), ...
func (p *Parser) parseAggregate(name Token, canonical string) (*Expr, error) {
	agg := &Aggregate{Op: canonical}
	// Arguments until ')' — expressions, then optionally <contributors>.
	for !p.At(")") {
		if p.At("<") {
			p.Advance()
			for {
				v := p.Advance()
				if v.Kind != TokIdent {
					return nil, fmt.Errorf("line %d: expected contributor variable, got %q", v.Line, v.Text)
				}
				agg.Contributors = append(agg.Contributors, v.Text)
				sep := p.Advance()
				if sep.Is(",") {
					continue
				}
				if sep.Is(">") {
					break
				}
				return nil, fmt.Errorf("line %d: expected , or > in contributor list, got %q", sep.Line, sep.Text)
			}
			continue
		}
		arg, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if agg.Arg == nil {
			agg.Arg = arg
		} else if agg.Arg2 == nil {
			agg.Arg2 = arg
		} else {
			return nil, fmt.Errorf("line %d: aggregate %s has too many arguments", name.Line, name.Text)
		}
		if p.At(",") {
			p.Advance()
		}
	}
	p.Advance()
	if isMonotonicName(name.Text) && len(agg.Contributors) == 0 {
		return nil, fmt.Errorf("line %d: monotonic aggregate %s requires contributor variables <...>", name.Line, name.Text)
	}
	if agg.Op == "pack" && (agg.Arg == nil || agg.Arg2 == nil) {
		return nil, fmt.Errorf("line %d: pack requires two arguments (name, value)", name.Line)
	}
	if agg.Op != "count" && agg.Op != "pack" && agg.Arg == nil {
		return nil, fmt.Errorf("line %d: aggregate %s requires an argument", name.Line, name.Text)
	}
	return &Expr{Kind: ExprAggregate, Agg: agg}, nil
}
