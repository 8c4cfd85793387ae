package metalog

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// Pattern-matching queries: the paper grounds MetaLog in the UC2RPQ
// tradition of navigational query languages (XPath, SPARQL, Cypher —
// Section 1 desiderata). Query exposes that capability directly: a MetaLog
// rule body — chains with regular path patterns, conditions, expressions —
// evaluated against a property graph, returning one row per match.
//
//	rows, err := metalog.Query(g, `
//	    (x: Business; businessName: n) [: CONTROLS] (y: Business),
//	    x != y
//	`, vadalog.Options{})
//
// Every named variable of the pattern becomes a column. Variables bound to
// node or edge identifiers hold the pg.OID as an integer value.

// QueryRow is one match of a query pattern: variable name → value.
type QueryRow map[string]value.Value

// OID reads a variable bound to a node or edge identifier.
func (r QueryRow) OID(name string) (pg.OID, bool) {
	v, ok := r[name]
	if !ok {
		return 0, false
	}
	i, ok := v.AsInt()
	return pg.OID(i), ok
}

const queryResultLabel = "__QueryResult"

// Query evaluates a MetaLog body pattern against the graph and returns the
// matches in deterministic order. The catalog is inferred from the graph; the
// pattern may name labels or properties the graph lacks — they extract as
// empty relations and Missing columns, and bind nothing.
func Query(g pg.View, pattern string, opts vadalog.Options) ([]QueryRow, error) {
	p, err := PrepareQuery(FromGraph(g), pattern, nil)
	if err != nil {
		return nil, err
	}
	return p.QueryView(context.Background(), g, opts)
}

// ErrStaleDatabase reports that a database handed to Prepared.QueryDB was
// extracted under narrower layouts than the prepared pattern needs — the
// pattern names a property the extraction emitted no column for.
// Prepared.QueryView serves such a pattern.
var ErrStaleDatabase = errors.New("metalog: query needs layouts absent from the pre-extracted database")

// buildQueryProgram wraps a parsed body pattern into a __QueryResult rule and
// translates it against cat (extending cat with any layouts the pattern
// introduces plus the query-result layout). It returns the compiled program
// and the sorted pattern variables.
func buildQueryProgram(body []BodyElem, cat *Catalog) (*Translation, []string, error) {
	vars := patternVariables(body)
	if len(vars) == 0 {
		return nil, nil, fmt.Errorf("metalog: query pattern has no named variables")
	}

	// Wrap the body into a rule deriving one __QueryResult node per distinct
	// binding: the result's linker Skolem over all variables makes rows
	// set-semantic, and the variables ride along as properties.
	head := Chain{Nodes: []NodeAtom{{
		ID:    Ident{Functor: "q", SkArgs: vars},
		Label: queryResultLabel,
	}}}
	for _, v := range vars {
		head.Nodes[0].Props = append(head.Nodes[0].Props, PropBinding{Name: v, Var: v})
	}
	prog := &Program{Rules: []Rule{{Body: body, Head: []Chain{head}, Line: 1}}}

	tr, err := Translate(prog, cat)
	if err != nil {
		return nil, nil, err
	}
	return tr, vars, nil
}

// Pattern is a parsed query pattern: a comma-separated list of MetaLog body
// conjuncts (the left-hand side of a rule) and the key that identifies it.
// Key is the scanner's token stream (vadalog.Parser.Key), so two texts share
// a key only if they share a parse: layout and comments between tokens are
// not part of a pattern's identity, the inside of a string constant is. The
// key is itself pattern text, and parses to an equal Body.
type Pattern struct {
	Body []BodyElem
	Key  string
}

// ParsePattern parses query pattern text, once, into its body and key.
func ParsePattern(src string) (Pattern, error) {
	pat, err := parsePattern(src)
	if err != nil {
		return Pattern{}, fmt.Errorf("metalog: %w", err)
	}
	return pat, nil
}

func parsePattern(src string) (Pattern, error) {
	p, err := newParser(src)
	if err != nil {
		return Pattern{}, err
	}
	var pat Pattern
	for {
		elem, err := p.parseBodyElem()
		if err != nil {
			return Pattern{}, err
		}
		pat.Body = append(pat.Body, elem)
		if !p.At(",") {
			break
		}
		p.Advance()
	}
	if t := p.Peek(); t.Kind != vadalog.TokEOF {
		return Pattern{}, fmt.Errorf("line %d: unexpected %q after pattern", t.Line, t.Text)
	}
	pat.Key = p.Key()
	return pat, nil
}

// patternVariables collects the named (non-anonymous) variables of a body,
// sorted: node/edge identifiers, property bindings, and expression
// variables.
func patternVariables(body []BodyElem) []string {
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && name != "_" {
			seen[name] = true
		}
	}
	var walkPath func(pe PathExpr)
	walkPath = func(pe PathExpr) {
		switch pe := pe.(type) {
		case Step:
			add(pe.Edge.ID.Var)
			for _, pb := range pe.Edge.Props {
				if !pb.IsConst {
					add(pb.Var)
				}
			}
		case Concat:
			for _, p := range pe.Parts {
				walkPath(p)
			}
		case Alt:
			for _, p := range pe.Branches {
				walkPath(p)
			}
		case Repeat:
			walkPath(pe.Inner)
		case Inv:
			walkPath(pe.Inner)
		}
	}
	for _, be := range body {
		switch be.Kind {
		case BodyChain, BodyNegChain:
			for _, n := range be.Chain.Nodes {
				add(n.ID.Var)
				for _, pb := range n.Props {
					if !pb.IsConst {
						add(pb.Var)
					}
				}
			}
			for _, pe := range be.Chain.Paths {
				walkPath(pe)
			}
		case BodyExpr:
			for _, v := range be.Expr.VarNames() {
				add(v)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
