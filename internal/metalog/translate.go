package metalog

import (
	"fmt"
	"sort"

	"repro/internal/sortedset"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// This file implements MTV, the MetaLog-to-Vadalog translator (Section 4,
// "MetaLog and Vadalog"). The translation has the paper's three phases:
//
//  1. the PG instance is mapped to a relational instance — implemented by
//     ExtractFacts (catalog.go) and documented in the generated program by
//     @input annotations in the style of Example 4.4;
//  2. PG node and edge atoms become relational atoms over the catalog's
//     column layout;
//  3. path patterns are resolved: concatenations chain fresh intermediate
//     variables, alternations produce α helper predicates, and repetitions
//     produce the recursive β helper predicates of Section 4. The zero-step
//     case of "*" is compiled by duplicating the rule with unified
//     endpoints, since the β rules natively express one-or-more.
//
// Per the paper's decidability condition, repetition is only admitted in
// non-recursive programs; Translate rejects programs that use "*"/"+" inside
// a cyclic label dependency graph. The generated β rules are then the only
// recursion in the output, which keeps it piecewise linear.

// Translation is the output of MTV: the Vadalog program plus the label
// bookkeeping needed to materialize results back into a property graph.
type Translation struct {
	Program *vadalog.Program

	// HeadNodeLabels / HeadEdgeLabels are the labels the program derives
	// (the intensional nodes and edges).
	HeadNodeLabels map[string]bool
	HeadEdgeLabels map[string]bool

	// BodyNodeLabels / BodyEdgeLabels are the labels the program reads.
	BodyNodeLabels map[string]bool
	BodyEdgeLabels map[string]bool

	// UpdateNodePreds maps internal shadow predicates to the node label they
	// update. A head node atom whose identifier is body-bound and whose label
	// is also read by the same rule is an in-place update (e.g. the
	// intensional numberOfStakeholders property of Section 3.3); deriving the
	// label itself would make the label depend on itself and break
	// stratification, so MTV derives mtv_set_<Label> instead and the
	// materializer applies it as a property update.
	UpdateNodePreds map[string]string

	// HelperPreds lists the generated α/β predicates, sorted.
	HelperPreds []string
}

type translator struct {
	cat   *Catalog
	tr    *Translation
	fresh int

	aux         []vadalog.Rule
	helperCache map[string]string
	helperKind  map[string]string // helper pred -> "alt" | "closure"

	nodeLabels map[string]bool
	edgeLabels map[string]bool
	hasRepeat  bool

	// depHeads and depEdges drive the repetition/recursion check: head atom
	// occurrences refined by their constant signatures, and the body atom
	// occurrences each depends on (see recordDeps).
	depHeads map[string]depAtom
	depEdges map[string][]depAtom
}

// depAtom is an atom occurrence in the label dependency graph, refined by
// the constant pattern it carries: the constants at its own argument
// positions and, for edge atoms, the constant patterns of the node atoms
// adjacent to its endpoints. Two occurrences of the same label with
// incompatible constant patterns (different constants at the same position)
// can never feed each other; this is what makes the paper's schemaOID-guarded
// mapping programs (Example 5.1) non-recursive despite reusing the SM_*
// labels on both sides of the rules.
type depAtom struct {
	pred     string
	consts   []value.Value
	epConsts [2][]value.Value // endpoint node-atom constants; nil = unknown
}

func (d depAtom) key() string {
	k := d.pred
	for _, c := range d.consts {
		k += "|" + c.Canonical()
	}
	for _, ep := range d.epConsts {
		k += "/"
		for _, c := range ep {
			k += "|" + c.Canonical()
		}
	}
	return k
}

func constsCompatible(a, b []value.Value) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !a[i].IsZero() && !b[i].IsZero() && !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// compatible reports whether facts produced under head occurrence h could
// match body occurrence b.
func (h depAtom) compatible(b depAtom) bool {
	if h.pred != b.pred {
		return false
	}
	if !constsCompatible(h.consts, b.consts) {
		return false
	}
	for i := 0; i < 2; i++ {
		if h.epConsts[i] != nil && b.epConsts[i] != nil && !constsCompatible(h.epConsts[i], b.epConsts[i]) {
			return false
		}
	}
	return true
}

// Translate compiles a MetaLog program to Vadalog. The catalog is extended
// in place with any labels and properties the program mentions, so that the
// same catalog drives fact extraction and result materialization.
func Translate(p *Program, cat *Catalog) (*Translation, error) {
	t := &translator{
		cat: cat,
		tr: &Translation{
			Program:         &vadalog.Program{},
			HeadNodeLabels:  map[string]bool{},
			HeadEdgeLabels:  map[string]bool{},
			BodyNodeLabels:  map[string]bool{},
			BodyEdgeLabels:  map[string]bool{},
			UpdateNodePreds: map[string]string{},
		},
		helperCache: map[string]string{},
		helperKind:  map[string]string{},
		nodeLabels:  map[string]bool{},
		edgeLabels:  map[string]bool{},
		depHeads:    map[string]depAtom{},
		depEdges:    map[string][]depAtom{},
	}
	if err := t.registerLabels(p); err != nil {
		return nil, err
	}
	for _, r := range p.Rules {
		rules, err := t.translateRule(r)
		if err != nil {
			return nil, err
		}
		t.tr.Program.Rules = append(t.tr.Program.Rules, rules...)
	}
	t.tr.Program.Rules = append(t.tr.Program.Rules, t.aux...)
	if err := t.checkRepeatNonRecursive(); err != nil {
		return nil, err
	}
	t.addAnnotations(p)
	for h := range t.helperKind {
		t.tr.HelperPreds = append(t.tr.HelperPreds, h)
	}
	sort.Strings(t.tr.HelperPreds)
	return t.tr, nil
}

func (t *translator) freshVar(prefix string) string {
	t.fresh++
	return fmt.Sprintf("%s%d", prefix, t.fresh)
}

// registerLabels scans the program, classifies every label as node or edge,
// and extends the catalog with the properties used.
func (t *translator) registerLabels(p *Program) error {
	var walkPath func(pe PathExpr) error
	noteEdge := func(e EdgeAtom) error {
		if e.Label == "" {
			return fmt.Errorf("metalog: edge atoms require a label")
		}
		if t.nodeLabels[e.Label] {
			return fmt.Errorf("metalog: label %s used both as node and edge label", e.Label)
		}
		t.edgeLabels[e.Label] = true
		var props []string
		for _, pb := range e.Props {
			props = append(props, pb.Name)
		}
		t.cat.EnsureEdge(e.Label, props...)
		return nil
	}
	noteNode := func(n NodeAtom) error {
		if n.Label == "" {
			if len(n.Props) > 0 {
				return fmt.Errorf("metalog: node atom %s has properties but no label", n)
			}
			return nil
		}
		if t.edgeLabels[n.Label] {
			return fmt.Errorf("metalog: label %s used both as node and edge label", n.Label)
		}
		t.nodeLabels[n.Label] = true
		var props []string
		for _, pb := range n.Props {
			props = append(props, pb.Name)
		}
		t.cat.EnsureNode(n.Label, props...)
		return nil
	}
	walkPath = func(pe PathExpr) error {
		switch pe := pe.(type) {
		case Step:
			return noteEdge(pe.Edge)
		case Concat:
			for _, part := range pe.Parts {
				if err := walkPath(part); err != nil {
					return err
				}
			}
		case Alt:
			for _, b := range pe.Branches {
				if err := walkPath(b); err != nil {
					return err
				}
			}
		case Repeat:
			t.hasRepeat = true
			return walkPath(pe.Inner)
		case Inv:
			return walkPath(pe.Inner)
		}
		return nil
	}
	walkChain := func(ch Chain) error {
		for _, n := range ch.Nodes {
			if err := noteNode(n); err != nil {
				return err
			}
		}
		for _, pe := range ch.Paths {
			if err := walkPath(pe); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if b.Kind == BodyChain || b.Kind == BodyNegChain {
				if err := walkChain(b.Chain); err != nil {
					return err
				}
			}
		}
		for _, h := range r.Head {
			if err := walkChain(h); err != nil {
				return err
			}
		}
	}
	return nil
}

// starUse records a zero-or-more repetition occurrence: the index of its β
// literal in the rule body and the endpoint variables to unify for the
// zero-step variant.
type starUse struct {
	litIndex int
	fromVar  string
	toVar    string
}

func (t *translator) translateRule(r Rule) ([]vadalog.Rule, error) {
	var lits []vadalog.Literal
	var stars []starUse

	for _, be := range r.Body {
		switch be.Kind {
		case BodyChain:
			if err := t.translateChain(be.Chain, &lits, &stars, r.Line); err != nil {
				return nil, err
			}
		case BodyNegChain:
			if err := t.translateNegChain(be.Chain, &lits, r.Line); err != nil {
				return nil, err
			}
		case BodyExpr:
			lits = append(lits, vadalog.Literal{Kind: vadalog.LitExpr, Expr: be.Expr})
		}
	}

	bodyLabels := map[string]bool{}
	for _, be := range r.Body {
		if be.Kind == BodyChain {
			for _, n := range be.Chain.Nodes {
				if n.Label != "" {
					bodyLabels[n.Label] = true
				}
			}
		}
	}

	var heads []vadalog.Atom
	for _, hc := range r.Head {
		hs, err := t.translateHeadChain(hc, bodyLabels, r.Line)
		if err != nil {
			return nil, err
		}
		heads = append(heads, hs...)
	}
	if len(heads) == 0 {
		return nil, fmt.Errorf("metalog: line %d: rule head derives nothing (all head atoms are bare references)", r.Line)
	}

	t.recordDeps(heads, lits)

	// Expand the zero-step variants of "*" occurrences: one rule per subset
	// of stars taking zero steps, with the corresponding β literal dropped
	// and endpoints unified.
	var out []vadalog.Rule
	for mask := 0; mask < 1<<uint(len(stars)); mask++ {
		subst := map[string]string{}
		drop := map[int]bool{}
		for si, su := range stars {
			if mask&(1<<uint(si)) != 0 {
				drop[su.litIndex] = true
				subst[su.toVar] = su.fromVar
			}
		}
		variant := vadalog.Rule{Line: r.Line}
		for li, l := range lits {
			if drop[li] {
				continue
			}
			variant.Body = append(variant.Body, substLiteral(l, subst))
		}
		for _, h := range heads {
			variant.Head = append(variant.Head, substAtom(h, subst))
		}
		out = append(out, variant)
	}
	return out, nil
}

// translateChain lowers n0 R1 n1 R2 … into relational literals. Node and
// path literals are interleaved in traversal order — n0, R1, n1, R2, n2 … —
// so that each join step is bound by its predecessors; emitting all node
// atoms first would build a cross product over the node relations.
func (t *translator) translateChain(ch Chain, lits *[]vadalog.Literal, stars *[]starUse, line int) error {
	ids := make([]string, len(ch.Nodes))
	for i, n := range ch.Nodes {
		if n.ID.IsSkolem() {
			return fmt.Errorf("metalog: line %d: Skolem identifiers are only allowed in rule heads", line)
		}
		if n.ID.Var != "" {
			ids[i] = n.ID.Var
		} else {
			ids[i] = t.freshVar("_mn")
		}
	}
	emitNode := func(i int) error {
		lit, err := t.nodeLiteral(ch.Nodes[i], ids[i], false)
		if err != nil {
			return err
		}
		if lit != nil {
			*lits = append(*lits, *lit)
		}
		return nil
	}
	if err := emitNode(0); err != nil {
		return err
	}
	for i, pe := range ch.Paths {
		if err := t.translatePath(pe, ids[i], ids[i+1], false, lits, stars, line); err != nil {
			return err
		}
		if err := emitNode(i + 1); err != nil {
			return err
		}
	}
	return nil
}

func (t *translator) translateNegChain(ch Chain, lits *[]vadalog.Literal, line int) error {
	switch {
	case len(ch.Nodes) == 1 && len(ch.Paths) == 0:
		n := ch.Nodes[0]
		if n.Label == "" {
			return fmt.Errorf("metalog: line %d: negated node atoms require a label", line)
		}
		if n.ID.Var == "" {
			return fmt.Errorf("metalog: line %d: negated node atoms require a bound identifier", line)
		}
		lit, err := t.nodeLiteral(n, n.ID.Var, true)
		if err != nil {
			return err
		}
		lit.Kind = vadalog.LitNegAtom
		*lits = append(*lits, *lit)
		return nil
	case len(ch.Nodes) == 2 && len(ch.Paths) == 1:
		st, ok := ch.Paths[0].(Step)
		if !ok {
			return fmt.Errorf("metalog: line %d: negated patterns must be single edge steps", line)
		}
		for _, n := range ch.Nodes {
			if n.Label != "" || len(n.Props) > 0 {
				return fmt.Errorf("metalog: line %d: endpoints of a negated edge must be bare references", line)
			}
			if n.ID.Var == "" {
				return fmt.Errorf("metalog: line %d: endpoints of a negated edge must be bound variables", line)
			}
		}
		lit, _, err := t.edgeLiteral(st.Edge, ch.Nodes[0].ID.Var, ch.Nodes[1].ID.Var, true)
		if err != nil {
			return err
		}
		lit.Kind = vadalog.LitNegAtom
		*lits = append(*lits, lit)
		return nil
	default:
		return fmt.Errorf("metalog: line %d: negated patterns must be a node atom or a single edge step", line)
	}
}

// nodeLiteral builds the relational literal of a node atom; nil when the
// atom is a bare reference (no label). anon selects wildcard naming for
// filler variables, used inside negated literals.
func (t *translator) nodeLiteral(n NodeAtom, idVar string, anon bool) (*vadalog.Literal, error) {
	if n.Label == "" {
		if len(n.Props) > 0 {
			return nil, fmt.Errorf("metalog: node atom %s has properties but no label", n)
		}
		return nil, nil
	}
	props := t.cat.NodeProps[n.Label]
	args := make([]vadalog.Term, 1+len(props))
	args[0] = vadalog.Var{Name: idVar}
	if bad := propTerms(args[1:], props, n.Props, t.filler(anon)); bad != "" {
		return nil, fmt.Errorf("metalog: label %s has no property %s", n.Label, bad)
	}
	return &vadalog.Literal{Kind: vadalog.LitAtom, Atom: vadalog.Atom{Pred: n.Label, Args: args}}, nil
}

// edgeLiteral builds the relational literal of an edge atom between two
// endpoint variables, honoring inversion, and returns the edge id variable.
func (t *translator) edgeLiteral(e EdgeAtom, fromVar, toVar string, anon bool) (vadalog.Literal, string, error) {
	if e.Label == "" {
		return vadalog.Literal{}, "", fmt.Errorf("metalog: edge atoms require a label")
	}
	idVar := e.ID.Var
	if idVar == "" {
		idVar = t.fillerVar(anon)
	}
	src, dst := fromVar, toVar
	if e.Inverse {
		src, dst = toVar, fromVar
	}
	props := t.cat.EdgeProps[e.Label]
	args := make([]vadalog.Term, 3+len(props))
	args[0] = vadalog.Var{Name: idVar}
	args[1] = vadalog.Var{Name: src}
	args[2] = vadalog.Var{Name: dst}
	if bad := propTerms(args[3:], props, e.Props, t.filler(anon)); bad != "" {
		return vadalog.Literal{}, "", fmt.Errorf("metalog: edge label %s has no property %s", e.Label, bad)
	}
	return vadalog.Literal{Kind: vadalog.LitAtom, Atom: vadalog.Atom{Pred: e.Label, Args: args}}, idVar, nil
}

func (t *translator) fillerVar(anon bool) string {
	if anon {
		return t.freshVar("_anonm")
	}
	return t.freshVar("_f")
}

// filler supplies the term of a property column a body atom does not bind.
func (t *translator) filler(anon bool) func() vadalog.Term {
	return func() vadalog.Term { return vadalog.Var{Name: t.fillerVar(anon)} }
}

// translatePath resolves a path expression between two endpoint variables,
// appending literals and recording zero-or-more occurrences (phase 3).
func (t *translator) translatePath(pe PathExpr, from, to string, inGroup bool, lits *[]vadalog.Literal, stars *[]starUse, line int) error {
	switch pe := pe.(type) {
	case Step:
		if inGroup {
			if err := groupSafeEdge(pe.Edge, line); err != nil {
				return err
			}
		}
		lit, _, err := t.edgeLiteral(pe.Edge, from, to, false)
		if err != nil {
			return err
		}
		*lits = append(*lits, lit)
		return nil
	case Inv:
		return t.translatePath(pe.Inner, to, from, inGroup, lits, stars, line)
	case Concat:
		cur := from
		for i, part := range pe.Parts {
			next := to
			if i < len(pe.Parts)-1 {
				next = t.freshVar("_mi")
			}
			if err := t.translatePath(part, cur, next, inGroup, lits, stars, line); err != nil {
				return err
			}
			cur = next
		}
		return nil
	case Alt:
		pred, err := t.helperAlt(pe, line)
		if err != nil {
			return err
		}
		*lits = append(*lits, binaryLit(pred, from, to))
		return nil
	case Repeat:
		if inGroup && !pe.Plus {
			return fmt.Errorf("metalog: line %d: zero-or-more repetition cannot be nested inside groups; use + or lift it to the top level of a step", line)
		}
		pred, err := t.helperClosure(pe.Inner, line)
		if err != nil {
			return err
		}
		*lits = append(*lits, binaryLit(pred, from, to))
		if !pe.Plus {
			*stars = append(*stars, starUse{litIndex: len(*lits) - 1, fromVar: from, toVar: to})
		}
		return nil
	default:
		return fmt.Errorf("metalog: line %d: unsupported path expression", line)
	}
}

func binaryLit(pred, from, to string) vadalog.Literal {
	return vadalog.Literal{Kind: vadalog.LitAtom, Atom: vadalog.Atom{
		Pred: pred,
		Args: []vadalog.Term{vadalog.Var{Name: from}, vadalog.Var{Name: to}},
	}}
}

// groupSafeEdge enforces that edge atoms inside α/β groups bind no
// variables: their matches are folded into a binary helper predicate, so any
// binding would be lost.
func groupSafeEdge(e EdgeAtom, line int) error {
	if e.ID.Var != "" {
		return fmt.Errorf("metalog: line %d: edge identifier %s cannot be bound inside a repeated or alternated group", line, e.ID.Var)
	}
	for _, pb := range e.Props {
		if !pb.IsConst {
			return fmt.Errorf("metalog: line %d: property variable %s cannot be bound inside a repeated or alternated group", line, pb.Var)
		}
	}
	return nil
}

// helperAlt returns (creating on first use) the α predicate for an
// alternation, per Section 4: one Vadalog rule per branch.
func (t *translator) helperAlt(a Alt, line int) (string, error) {
	key := "alt:" + a.String()
	if pred, ok := t.helperCache[key]; ok {
		return pred, nil
	}
	pred := fmt.Sprintf("mtv_alt_%d", len(t.helperCache)+1)
	t.helperCache[key] = pred
	t.helperKind[pred] = "alt"
	for _, branch := range a.Branches {
		var lits []vadalog.Literal
		var innerStars []starUse
		if err := t.translatePath(branch, "H", "Q", true, &lits, &innerStars, line); err != nil {
			return "", err
		}
		t.aux = append(t.aux, vadalog.Rule{
			Head: []vadalog.Atom{{Pred: pred, Args: []vadalog.Term{vadalog.Var{Name: "H"}, vadalog.Var{Name: "Q"}}}},
			Body: lits,
			Line: line,
		})
		t.noteHelperDeps(pred, lits)
	}
	return pred, nil
}

// helperClosure returns (creating on first use) the β predicate computing
// the one-or-more closure of a path expression, with the two rules of the
// paper's translation: τ(S,h,q) → β(h,q) and β(v,h), τ(S,h,q) → β(v,q).
func (t *translator) helperClosure(inner PathExpr, line int) (string, error) {
	key := "closure:" + inner.String()
	if pred, ok := t.helperCache[key]; ok {
		return pred, nil
	}
	pred := fmt.Sprintf("mtv_closure_%d", len(t.helperCache)+1)
	t.helperCache[key] = pred
	t.helperKind[pred] = "closure"

	var base []vadalog.Literal
	var innerStars []starUse
	if err := t.translatePath(inner, "H", "Q", true, &base, &innerStars, line); err != nil {
		return "", err
	}
	headHQ := vadalog.Atom{Pred: pred, Args: []vadalog.Term{vadalog.Var{Name: "H"}, vadalog.Var{Name: "Q"}}}
	t.aux = append(t.aux, vadalog.Rule{Head: []vadalog.Atom{headHQ}, Body: base, Line: line})
	t.noteHelperDeps(pred, base)

	var stepBody []vadalog.Literal
	stepBody = append(stepBody, binaryLit(pred, "V", "H"))
	var base2 []vadalog.Literal
	if err := t.translatePath(inner, "H", "Q", true, &base2, &innerStars, line); err != nil {
		return "", err
	}
	stepBody = append(stepBody, base2...)
	t.aux = append(t.aux, vadalog.Rule{
		Head: []vadalog.Atom{{Pred: pred, Args: []vadalog.Term{vadalog.Var{Name: "V"}, vadalog.Var{Name: "Q"}}}},
		Body: stepBody,
		Line: line,
	})
	t.noteHelperDeps(pred, stepBody)
	return pred, nil
}

func (t *translator) noteHelperDeps(pred string, lits []vadalog.Literal) {
	t.recordDeps([]vadalog.Atom{{Pred: pred, Args: []vadalog.Term{vadalog.Var{Name: "H"}, vadalog.Var{Name: "Q"}}}}, lits)
}

// translateHeadChain lowers a head chain into head atoms. Node atoms without
// a label are bare endpoint references and produce no atom.
func (t *translator) translateHeadChain(hc Chain, bodyLabels map[string]bool, line int) ([]vadalog.Atom, error) {
	ids := make([]vadalog.Term, len(hc.Nodes))
	var out []vadalog.Atom
	for i, n := range hc.Nodes {
		switch {
		case n.ID.IsSkolem():
			st := vadalog.SkolemTerm{Functor: n.ID.Functor}
			for _, a := range n.ID.SkArgs {
				st.Args = append(st.Args, vadalog.Var{Name: a})
			}
			ids[i] = st
		case n.ID.Var != "":
			ids[i] = vadalog.Var{Name: n.ID.Var}
		default:
			if n.Label == "" {
				return nil, fmt.Errorf("metalog: line %d: anonymous unlabeled node atoms are not allowed in heads", line)
			}
			// Anonymous labeled head node: an existential node (fresh
			// variable that the engine Skolemizes).
			ids[i] = vadalog.Var{Name: t.freshVar("_hex")}
		}
		if n.Label == "" {
			if len(n.Props) > 0 {
				return nil, fmt.Errorf("metalog: line %d: head node atom has properties but no label", line)
			}
			continue
		}
		props := t.cat.NodeProps[n.Label]
		args := make([]vadalog.Term, 1+len(props))
		args[0] = ids[i]
		if bad := propTerms(args[1:], props, n.Props, missingTerm); bad != "" {
			return nil, fmt.Errorf("metalog: label %s has no property %s", n.Label, bad)
		}
		pred := n.Label
		if n.ID.Var != "" && !n.ID.IsSkolem() && bodyLabels[n.Label] {
			// In-place update of an existing node (see UpdateNodePreds).
			pred = "mtv_set_" + n.Label
			t.tr.UpdateNodePreds[pred] = n.Label
		} else {
			t.tr.HeadNodeLabels[n.Label] = true
		}
		out = append(out, vadalog.Atom{Pred: pred, Args: args})
	}
	for i, pe := range hc.Paths {
		st := pe.(Step) // validated by the parser
		e := st.Edge
		var idTerm vadalog.Term
		switch {
		case e.ID.IsSkolem():
			skt := vadalog.SkolemTerm{Functor: e.ID.Functor}
			for _, a := range e.ID.SkArgs {
				skt.Args = append(skt.Args, vadalog.Var{Name: a})
			}
			idTerm = skt
		case e.ID.Var != "":
			idTerm = vadalog.Var{Name: e.ID.Var}
		default:
			idTerm = vadalog.Var{Name: t.freshVar("_hex")}
		}
		props := t.cat.EdgeProps[e.Label]
		args := make([]vadalog.Term, 3+len(props))
		args[0] = idTerm
		args[1] = ids[i]
		args[2] = ids[i+1]
		if bad := propTerms(args[3:], props, e.Props, missingTerm); bad != "" {
			return nil, fmt.Errorf("metalog: edge label %s has no property %s", e.Label, bad)
		}
		out = append(out, vadalog.Atom{Pred: e.Label, Args: args})
		t.tr.HeadEdgeLabels[e.Label] = true
	}
	return out, nil
}

// recordDeps records the dependency-graph contribution of one rule: every
// head atom occurrence (refined by constant signature) depends on every body
// atom occurrence. Compatibility between occurrences is resolved at
// traversal time by checkRepeatNonRecursive.
func (t *translator) recordDeps(heads []vadalog.Atom, lits []vadalog.Literal) {
	constPattern := func(a vadalog.Atom) []value.Value {
		out := make([]value.Value, len(a.Args))
		for i, arg := range a.Args {
			if c, ok := arg.(vadalog.Const); ok {
				out[i] = c.Value
			}
		}
		return out
	}
	// Index node atoms by identifier term so edge endpoints resolve to the
	// constant pattern of their adjacent node atoms.
	headNodeByID := map[string][]value.Value{}
	for _, h := range heads {
		if t.nodeLabels[h.Pred] && len(h.Args) > 0 {
			headNodeByID[h.Args[0].String()] = constPattern(h)
		}
	}
	bodyNodeByID := map[string][]value.Value{}
	for _, l := range lits {
		if l.Kind == vadalog.LitAtom && t.nodeLabels[l.Atom.Pred] && len(l.Atom.Args) > 0 {
			bodyNodeByID[l.Atom.Args[0].String()] = constPattern(l.Atom)
		}
	}
	mk := func(a vadalog.Atom, nodeByID map[string][]value.Value) depAtom {
		d := depAtom{pred: a.Pred, consts: constPattern(a)}
		if t.edgeLabels[a.Pred] && len(a.Args) >= 3 {
			for i := 0; i < 2; i++ {
				if pat, ok := nodeByID[a.Args[i+1].String()]; ok {
					d.epConsts[i] = pat
				}
			}
		}
		return d
	}
	var bodyAtoms []depAtom
	for _, l := range lits {
		if l.Kind == vadalog.LitAtom || l.Kind == vadalog.LitNegAtom {
			bodyAtoms = append(bodyAtoms, mk(l.Atom, bodyNodeByID))
		}
	}
	for _, h := range heads {
		hd := mk(h, headNodeByID)
		k := hd.key()
		if _, ok := t.depHeads[k]; !ok {
			t.depHeads[k] = hd
		}
		t.depEdges[k] = append(t.depEdges[k], bodyAtoms...)
	}
}

// checkRepeatNonRecursive enforces the paper's decidability condition:
// transitive closure (the Kleene operators) is allowed only in non-recursive
// programs. The dependency graph is over constant-refined atom occurrences,
// so the schemaOID-guarded mapping programs of Section 5 — which read one
// schema and write another — pass the check, while genuinely recursive
// programs with repetition are rejected. The self-recursion of the generated
// β closure predicates is exempt: it is exactly what the translation
// introduces, and it is piecewise linear by construction.
func (t *translator) checkRepeatNonRecursive() error {
	if !t.hasRepeat {
		return nil
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	keys := make([]string, 0, len(t.depHeads))
	for k := range t.depHeads {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var visit func(k string) error
	visit = func(k string) error {
		switch color[k] {
		case gray:
			return fmt.Errorf("metalog: program uses repetition (* or +) but is recursive through label %s; the paper's decidability condition forbids this", t.depHeads[k].pred)
		case black:
			return nil
		}
		color[k] = gray
		hd := t.depHeads[k]
		for _, body := range t.depEdges[k] {
			for _, k2 := range keys {
				h2 := t.depHeads[k2]
				if !h2.compatible(body) {
					continue
				}
				if k2 == k && t.helperKind[hd.pred] == "closure" {
					continue // β self-recursion introduced by the translation
				}
				if err := visit(k2); err != nil {
					return err
				}
			}
		}
		color[k] = black
		return nil
	}
	for _, k := range keys {
		if err := visit(k); err != nil {
			return err
		}
	}
	return nil
}

// addAnnotations emits @output annotations for every derived label, @input
// annotations in the style of Example 4.4 for every label read from the
// property graph, and passes the user's annotations through.
func (t *translator) addAnnotations(p *Program) {
	prog := t.tr.Program
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Kind != vadalog.LitAtom && l.Kind != vadalog.LitNegAtom {
				continue
			}
			pred := l.Atom.Pred
			if t.nodeLabels[pred] {
				t.tr.BodyNodeLabels[pred] = true
			}
			if t.edgeLabels[pred] {
				t.tr.BodyEdgeLabels[pred] = true
			}
		}
	}
	for _, l := range sortedset.Keys(t.tr.BodyNodeLabels) {
		prog.Annotations = append(prog.Annotations, vadalog.Annotation{
			Name: "input",
			Args: []string{l, "pg", fmt.Sprintf("(n:%s) return n", l)},
		})
	}
	for _, l := range sortedset.Keys(t.tr.BodyEdgeLabels) {
		prog.Annotations = append(prog.Annotations, vadalog.Annotation{
			Name: "input",
			Args: []string{l, "pg", fmt.Sprintf("(a)-[e:%s]->(b) return (e,a,b)", l)},
		})
	}
	outs := map[string]bool{}
	for l := range t.tr.HeadNodeLabels {
		outs[l] = true
	}
	for l := range t.tr.HeadEdgeLabels {
		outs[l] = true
	}
	for _, l := range sortedset.Keys(outs) {
		prog.Annotations = append(prog.Annotations, vadalog.Annotation{Name: "output", Args: []string{l}})
	}
	prog.Annotations = append(prog.Annotations, p.Annotations...)
}

// substitution helpers for the zero-step variants of "*".

func substLiteral(l vadalog.Literal, subst map[string]string) vadalog.Literal {
	if len(subst) == 0 {
		return l
	}
	switch l.Kind {
	case vadalog.LitAtom, vadalog.LitNegAtom:
		return vadalog.Literal{Kind: l.Kind, Atom: substAtom(l.Atom, subst)}
	default:
		return vadalog.Literal{Kind: l.Kind, Expr: substExpr(l.Expr, subst)}
	}
}

func substAtom(a vadalog.Atom, subst map[string]string) vadalog.Atom {
	if len(subst) == 0 {
		return a
	}
	out := vadalog.Atom{Pred: a.Pred, Args: make([]vadalog.Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = substTerm(t, subst)
	}
	return out
}

func substTerm(t vadalog.Term, subst map[string]string) vadalog.Term {
	switch t := t.(type) {
	case vadalog.Var:
		if to, ok := subst[t.Name]; ok {
			return vadalog.Var{Name: to}
		}
		return t
	case vadalog.SkolemTerm:
		out := vadalog.SkolemTerm{Functor: t.Functor, Args: make([]vadalog.Term, len(t.Args))}
		for i, a := range t.Args {
			out.Args[i] = substTerm(a, subst)
		}
		return out
	default:
		return t
	}
}

func substExpr(e *vadalog.Expr, subst map[string]string) *vadalog.Expr {
	if e == nil {
		return nil
	}
	out := *e
	if e.Kind == vadalog.ExprVar {
		if to, ok := subst[e.Name]; ok {
			out.Name = to
		}
		return &out
	}
	out.Left = substExpr(e.Left, subst)
	out.Right = substExpr(e.Right, subst)
	if e.Args != nil {
		out.Args = make([]*vadalog.Expr, len(e.Args))
		for i, a := range e.Args {
			out.Args[i] = substExpr(a, subst)
		}
	}
	if e.Agg != nil {
		agg := *e.Agg
		agg.Arg = substExpr(e.Agg.Arg, subst)
		agg.Arg2 = substExpr(e.Agg.Arg2, subst)
		if e.Agg.Contributors != nil {
			agg.Contributors = make([]string, len(e.Agg.Contributors))
			for i, c := range e.Agg.Contributors {
				if to, ok := subst[c]; ok {
					agg.Contributors[i] = to
				} else {
					agg.Contributors[i] = c
				}
			}
		}
		out.Agg = &agg
	}
	return &out
}
