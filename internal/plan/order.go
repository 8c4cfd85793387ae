package plan

import (
	"math"
	"strings"

	"repro/internal/fault"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// siteOrder brackets one planning pass; chaos tests arm it to prove that a
// failed planner falls back to unplanned written-order evaluation
// bit-identically (the caller keeps the input program on error).
var siteOrder = fault.Site("plan/order")

// Options selects the transformation passes Compile applies.
type Options struct {
	// Demand enables the magic-sets-style demand transformation over the
	// left-linear closure predicates (demand.go) on top of join ordering.
	Demand bool
}

// LiteralPlan is one body literal in plan order with its cumulative
// cardinality estimate (expected intermediate rows after evaluating the
// body up to and including this literal).
type LiteralPlan struct {
	Text      string  `json:"text"`
	OrigIndex int     `json:"origIndex"`
	EstRows   float64 `json:"estRows"`
}

// RulePlan is the plan of one rule: the chosen literal order (written order
// when Fallback names why the rule is outside the reorderable class) and
// the estimated output cardinality.
type RulePlan struct {
	HeadPred  string        `json:"headPred"`
	Head      string        `json:"head"`
	Reordered bool          `json:"reordered"`
	Fallback  string        `json:"fallback,omitempty"`
	EstRows   float64       `json:"estRows"`
	Literals  []LiteralPlan `json:"literals,omitempty"`
}

// DemandPlan describes one demand-transformed closure predicate.
type DemandPlan struct {
	Pred    string   `json:"pred"`
	Guard   string   `json:"guard"`
	Seeds   []string `json:"seeds"`
	SeedEst float64  `json:"seedEst"`
	FullEst float64  `json:"fullEst"`
}

// Plan is the serializable explain output of one Compile: per-rule orders
// and estimates plus the demand rewrites. Planned is false only for a
// whole-program fallback (no statistics, or a failed pass the caller
// recovered from); per-rule fallbacks leave Planned true.
type Plan struct {
	Planned  bool         `json:"planned"`
	Fallback string       `json:"fallback,omitempty"`
	EstRows  float64      `json:"estRows"`
	Rules    []RulePlan   `json:"rules,omitempty"`
	Demand   []DemandPlan `json:"demand,omitempty"`
}

// Unplanned is the Plan reported when the planner did not run: the program
// keeps its written order.
func Unplanned(reason string) *Plan { return &Plan{Planned: false, Fallback: reason} }

// OutputEst sums the estimated rows of the rules deriving headPred.
func (p *Plan) OutputEst(headPred string) float64 {
	var total float64
	for _, r := range p.Rules {
		if r.HeadPred == headPred {
			total += r.EstRows
		}
	}
	return total
}

// Compile plans a translated program against the statistics catalog: every
// rule body inside the reorderable class is reordered greedily by estimated
// cardinality (bound-variable propagation, smallest-estimate-first), and
// with opt.Demand the closure predicates are restricted to their demanded
// subset. The input program is never mutated; the returned program is
// executed by the unmodified engine. An error (only from the plan/order
// fault site or a nil program) means the caller must keep the unplanned
// program — the transformation is all-or-nothing.
func Compile(prog *vadalog.Program, st *Stats, opt Options) (*vadalog.Program, *Plan, error) {
	if err := fault.Hit(siteOrder); err != nil {
		return nil, nil, err
	}
	if st == nil {
		return prog, Unplanned("no statistics catalog"), nil
	}
	out := prog.CloneRules()
	pl := &Plan{Planned: true}
	idb := make(map[string]bool)
	for _, r := range out.Rules {
		for _, h := range r.Head {
			idb[h.Pred] = true
		}
	}
	for i := range out.Rules {
		rp := orderRule(&out.Rules[i], st, idb)
		pl.EstRows += rp.EstRows
		pl.Rules = append(pl.Rules, rp)
	}
	if opt.Demand {
		applyDemand(out, st, pl)
	}
	changed := len(pl.Demand) > 0
	for _, rp := range pl.Rules {
		changed = changed || rp.Reordered
	}
	if changed {
		// Final safety net: the transformed program must pass the same static
		// analysis the engine will run. A violation means a planner bug — the
		// caller keeps the written-order program, transparently.
		if _, err := vadalog.Analyze(out); err != nil {
			return prog, Unplanned("transformed program failed analysis: " + err.Error()), nil
		}
	}
	return out, pl, nil
}

// orderRule reorders one rule body in place and returns its plan. Rules
// outside the reorderable class — assignments (an expression literal whose
// target variable is unbound at its written position; moving it would flip
// it between assignment and condition), aggregates (contributor
// multiplicity depends on traversal order), first-match-only variants (the
// cut is anchored to the leading atom), negated atoms or conditions over
// variables unbound at their written position (their wildcard/error
// semantics are position-dependent), conditions that can fail to evaluate
// (see fallible) — keep their written order, with the
// reason recorded in Fallback. These are exactly the Maintainer's
// reordering hazards (internal/vadalog/delta.go assignTargets).
func orderRule(r *vadalog.Rule, st *Stats, idb map[string]bool) RulePlan {
	rp := RulePlan{Head: headString(r), HeadPred: headPred(r)}
	selfPreds := map[string]bool{}
	for _, h := range r.Head {
		selfPreds[h.Pred] = true
	}
	if reason := reorderHazard(r); reason != "" {
		rp.Fallback = reason
		rp.Literals, rp.EstRows = estimateBody(r.Body, st, idb, selfPreds)
		return rp
	}

	type pend struct {
		idx int
		lit vadalog.Literal
	}
	var atoms, filters []pend
	for i, l := range r.Body {
		if l.Kind == vadalog.LitAtom {
			atoms = append(atoms, pend{i, l})
		} else {
			filters = append(filters, pend{i, l})
		}
	}

	bound := map[string]bool{}
	rows := 1.0
	ordered := make([]pend, 0, len(r.Body))
	place := func(p pend, est float64) {
		rows = math.Max(rows*est, minEst)
		ordered = append(ordered, p)
		rp.Literals = append(rp.Literals, LiteralPlan{Text: p.lit.String(), OrigIndex: p.idx, EstRows: round3(rows)})
	}
	// flush places every pending filter whose variables are all bound — in
	// written relative order, immediately, so filters run as early as their
	// bindings allow.
	flush := func() {
		for changed := true; changed; {
			changed = false
			for i := 0; i < len(filters); i++ {
				if allBound(filters[i].lit.VarNames(), bound) {
					place(filters[i], filterSelectivity)
					filters = append(filters[:i], filters[i+1:]...)
					changed = true
					i--
				}
			}
		}
	}
	flush()
	for len(atoms) > 0 {
		// Avoid Cartesian products: once variables are bound, only atoms
		// sharing one (or carrying constants) are candidates, however cheap an
		// unconnected scan looks — estimates cannot price the blowup of
		// joining two unrelated relations late.
		connected := false
		if len(bound) > 0 {
			for _, a := range atoms {
				if atomConnected(a.lit.Atom, bound) {
					connected = true
					break
				}
			}
		}
		best, bestEst := -1, 0.0
		for i, a := range atoms {
			if connected && !atomConnected(a.lit.Atom, bound) {
				continue
			}
			est := estimateAtom(st, idb, selfPreds, a.lit.Atom, bound)
			if best == -1 || est < bestEst {
				best, bestEst = i, est
			}
		}
		a := atoms[best]
		atoms = append(atoms[:best], atoms[best+1:]...)
		place(a, bestEst)
		for _, v := range a.lit.Atom.Vars() {
			bound[v] = true
		}
		flush()
	}
	if len(filters) > 0 {
		// Defensive: a filter whose variables no positive atom binds. The
		// hazard scan should have caught it; keep written order.
		rp.Fallback = "unbindable filter"
		rp.Reordered = false
		rp.Literals, rp.EstRows = estimateBody(r.Body, st, idb, selfPreds)
		return rp
	}

	for i, p := range ordered {
		if p.idx != i {
			rp.Reordered = true
			break
		}
	}
	if rp.Reordered {
		body := make([]vadalog.Literal, len(ordered))
		for i, p := range ordered {
			body[i] = p.lit
		}
		r.Body = body
	}
	rp.EstRows = round3(rows)
	return rp
}

// reorderHazard names the feature that pins a rule to its written order, or
// returns "" for reorderable rules.
func reorderHazard(r *vadalog.Rule) string {
	if r.FirstMatchOnly {
		return "first-match-only"
	}
	bound := map[string]bool{}
	for _, l := range r.Body {
		switch l.Kind {
		case vadalog.LitAtom:
			for _, t := range l.Atom.Args {
				if _, ok := t.(vadalog.SkolemTerm); ok {
					return "skolem term in body"
				}
			}
			for _, v := range l.Atom.Vars() {
				bound[v] = true
			}
		case vadalog.LitNegAtom:
			for _, v := range l.Atom.Vars() {
				if !bound[v] {
					// Unbound negation variables are wildcards at their
					// written position; a reorder could bind them.
					return "negation over unbound variables"
				}
			}
		case vadalog.LitExpr:
			if l.Expr.HasAggregate() {
				return "aggregation"
			}
			if tgt, ok := l.Expr.AssignTarget(); ok && !bound[tgt] {
				return "assignment"
			}
			for _, v := range l.Expr.VarNames() {
				if !bound[v] {
					return "condition over unbound variables"
				}
			}
			if fallible(l.Expr, true) {
				return "condition that can fail to evaluate"
			}
		}
	}
	return ""
}

// fallible reports whether evaluating a condition can raise. Comparisons and
// boolean connectives over variables and constants always yield a boolean;
// arithmetic and calls check operand kinds at run time, and a bare value
// (cond marks the top level) is rejected unless boolean. Which bindings reach
// a condition depends on the join order, so a reorder could surface or hide
// the error.
func fallible(e *vadalog.Expr, cond bool) bool {
	switch e.Kind {
	case vadalog.ExprConst:
		return cond && e.Val.K != value.Bool
	case vadalog.ExprVar:
		return cond
	case vadalog.ExprUnary:
		return e.Op != "not" || fallible(e.Left, false)
	case vadalog.ExprBinary:
		switch e.Op {
		case "+", "-", "*", "/":
			return true
		}
		return fallible(e.Left, false) || fallible(e.Right, false)
	}
	return true
}

const (
	filterSelectivity = 0.5
	minEst            = 1e-3
)

// estimateAtom is the cost model: expected matches of one atom per binding
// of the already-bound variables. Extensional predicates use the catalog's
// cardinality divided by the distinct count of every bound column (a bound
// edge source costs Card/Distinct[from] — the label's average out-degree;
// a bound property constant costs Card/Distinct[prop] — its selectivity).
// Intensional predicates (helpers, derived labels) have unknown size: they
// are assumed graph-scale with a default per-bound-column selectivity, which
// biases the order toward extensional scans first — exactly the index-aware
// choice, since bound extensional probes hit the relation's masked indexes.
func estimateAtom(st *Stats, idb, self map[string]bool, a vadalog.Atom, bound map[string]bool) float64 {
	if self[a.Pred] {
		// Recursive atom: under semi-naive evaluation this occurrence binds to
		// the previous round's delta, not the full relation. Price it at
		// delta scale so it leads the join — a full scan ordered before it
		// would be rescanned on every fixpoint iteration.
		return 1
	}
	ps, known := st.Preds[a.Pred]
	var est float64
	if known && !idb[a.Pred] {
		est = float64(ps.Card)
		for i, t := range a.Args {
			if termBound(t, bound) {
				est /= float64(ps.distinctAt(i))
			}
		}
	} else {
		est = float64(st.Nodes+st.Edges) + 1
		for _, t := range a.Args {
			if termBound(t, bound) {
				est /= defaultDistinct
			}
		}
	}
	return math.Max(est, minEst)
}

// estimateBody estimates a body in its given order without reordering it —
// the explain numbers for fallback rules.
func estimateBody(body []vadalog.Literal, st *Stats, idb, self map[string]bool) ([]LiteralPlan, float64) {
	bound := map[string]bool{}
	rows := 1.0
	out := make([]LiteralPlan, 0, len(body))
	for i, l := range body {
		switch l.Kind {
		case vadalog.LitAtom:
			rows = math.Max(rows*estimateAtom(st, idb, self, l.Atom, bound), minEst)
			for _, v := range l.Atom.Vars() {
				bound[v] = true
			}
		default:
			rows = math.Max(rows*filterSelectivity, minEst)
			if l.Kind == vadalog.LitExpr {
				if tgt, ok := l.Expr.AssignTarget(); ok {
					bound[tgt] = true
				}
			}
		}
		out = append(out, LiteralPlan{Text: l.String(), OrigIndex: i, EstRows: round3(rows)})
	}
	return out, round3(rows)
}

// atomConnected reports whether an atom joins with the bound variables (or
// probes by constant) rather than starting an unrelated scan.
func atomConnected(a vadalog.Atom, bound map[string]bool) bool {
	for _, t := range a.Args {
		if termBound(t, bound) {
			return true
		}
	}
	return false
}

func termBound(t vadalog.Term, bound map[string]bool) bool {
	switch t := t.(type) {
	case vadalog.Const:
		return true
	case vadalog.Var:
		return bound[t.Name]
	default:
		return false
	}
}

func allBound(vars []string, bound map[string]bool) bool {
	for _, v := range vars {
		if !bound[v] {
			return false
		}
	}
	return true
}

func headString(r *vadalog.Rule) string {
	parts := make([]string, len(r.Head))
	for i, h := range r.Head {
		parts[i] = h.String()
	}
	return strings.Join(parts, ", ")
}

func headPred(r *vadalog.Rule) string {
	if len(r.Head) == 0 {
		return ""
	}
	return r.Head[0].Pred
}

// round3 keeps the explain JSON readable (and deterministic across
// platforms) without losing the orders of magnitude the estimates carry.
func round3(f float64) float64 {
	if f >= 100 {
		return math.Round(f)
	}
	return math.Round(f*1000) / 1000
}
