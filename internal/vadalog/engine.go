package vadalog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
)

// Options configures a reasoning run.
type Options struct {
	// MaxRounds bounds the number of fixpoint rounds per stratum, as a
	// safety valve against non-terminating chases. 0 means the default.
	MaxRounds int
	// MaxFacts bounds the total number of derived facts. 0 means unlimited.
	MaxFacts int
	// Naive disables semi-naive delta evaluation: every fixpoint round
	// re-evaluates every rule against the full relations. Exists for the
	// evaluation-strategy ablation benchmarks; always slower.
	Naive bool
	// Provenance records, for every derived fact, the rule and body facts of
	// its first derivation, enabling Result.Explain. Costs memory
	// proportional to the derived facts. Provenance tracks the *first*
	// derivation, which only insertion order makes well-defined, so a
	// provenance run evaluates every rule sequentially even when Workers
	// asks for parallelism.
	Provenance bool
	// Timeout bounds the wall-clock duration of the run. When it expires the
	// engine stops cooperatively at the next round or shard boundary and
	// returns ErrTimeout together with the partial result. 0 means no bound.
	// The timeout composes with any deadline already on the context passed to
	// RunCtx/RunInPlaceCtx; whichever expires first wins.
	Timeout time.Duration
	// Trace, when non-nil, receives the observability trace of the run: one
	// obs.RunTrace with per-rule counters (evaluations, firings, derived
	// facts, join probes, wall time), per-round delta sizes, and the outcome.
	// Everything but the wall times is deterministic and worker-count
	// independent; obs.Trace.WriteJSON serializes exactly that subset.
	Trace *obs.Trace
	// OnFault selects the failure policy of the run: FailFast (default)
	// returns the first stratum failure as-is; BestEffort wraps it in a
	// *PartialError so callers can salvage the strata that completed. See
	// FaultPolicy.
	OnFault FaultPolicy
	// OwnInput declares that the caller hands the input database over to
	// the run and will not read or reuse it afterwards. Run/RunCtx then
	// skip the defensive Clone of the input and saturate it directly,
	// exactly like RunInPlace — the right call for load-once pipelines
	// (CLIs, query evaluation) where the clone is pure overhead. Leave it
	// false when the same database feeds several runs, as the comparative
	// benchmarks do.
	OwnInput bool
	// Workers sets the number of goroutines used to evaluate each rule.
	// Values <= 1 select the sequential engine. With Workers >= 2, the
	// driver window of every shardable rule is partitioned into shards
	// evaluated concurrently on a worker pool; emitted facts are buffered
	// per shard and merged deterministically (see parallel.go), so the
	// derived fact set is identical for every worker count. Programs with
	// any aggregate, stratified ones included, evaluate sequentially:
	// running emissions depend on contribution order, which no merge
	// discipline preserves.
	Workers int
}

const defaultMaxRounds = 1 << 20

// ErrCanceled and ErrTimeout are the typed interruption errors of a run.
// Both are detected cooperatively at round and shard boundaries, and both
// come back alongside a non-nil partial Result whose Stats (and DB) reflect
// the work completed before the interruption. Match with errors.Is.
var (
	// ErrCanceled reports that the context passed to RunCtx/RunInPlaceCtx
	// (or Maintainer.ApplyCtx) was canceled.
	ErrCanceled = errors.New("vadalog: run canceled")
	// ErrTimeout reports that Options.Timeout — or a deadline already on the
	// caller's context — expired.
	ErrTimeout = errors.New("vadalog: run timed out")
)

// canonicalRunErr maps raw context errors surfacing from the evaluation
// stack onto the package's typed sentinels; other errors pass through.
func canonicalRunErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCanceled) || errors.Is(err, ErrTimeout):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return ErrTimeout
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	default:
		return err
	}
}

// statusOf classifies a run error for the trace outcome and the process-wide
// counters.
func statusOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// RunStats summarizes a reasoning run.
type RunStats struct {
	Rounds       int
	FactsDerived int
	Duration     time.Duration
}

// Result is the outcome of a reasoning run: the saturated database Σ(D), the
// static analysis, and run statistics. When the run recorded provenance,
// Explain reconstructs proof trees for derived facts.
type Result struct {
	DB       *Database
	Analysis *Analysis
	Stats    RunStats

	prov map[string]derivation
}

// Output returns the derived facts for a predicate in deterministic order.
func (r *Result) Output(pred string) []Fact { return r.DB.SortedFacts(pred) }

// Run executes the program over the input database and returns the saturated
// result. The input database is not modified unless Options.OwnInput
// transfers it to the run.
func Run(prog *Program, input *Database, opts Options) (*Result, error) {
	return RunCtx(context.Background(), prog, input, opts)
}

// RunCtx is Run under a context: the run stops cooperatively at the next
// round or shard boundary once ctx is canceled (ErrCanceled) or its deadline
// — or Options.Timeout — expires (ErrTimeout). On interruption the returned
// Result is non-nil and carries the partial statistics and database.
//
// By default the input is cloned so the caller's database survives the run
// untouched; Options.OwnInput skips that copy for callers that hand the
// database over.
func RunCtx(ctx context.Context, prog *Program, input *Database, opts Options) (*Result, error) {
	if !opts.OwnInput {
		input = input.Clone()
	}
	return RunInPlaceCtx(ctx, prog, input, opts)
}

// RunInPlace is Run but saturates the given database directly, avoiding the
// copy. The database is extended with the derived facts.
func RunInPlace(prog *Program, db *Database, opts Options) (*Result, error) {
	return RunInPlaceCtx(context.Background(), prog, db, opts)
}

// RunInPlaceCtx is RunInPlace under a context (see RunCtx).
func RunInPlaceCtx(ctx context.Context, prog *Program, db *Database, opts Options) (*Result, error) {
	_, res, err := runInPlace(ctx, prog, db, opts)
	return res, err
}

// runInPlace is RunInPlaceCtx that also returns the released engine, whose
// fixpoint a Maintainer resumes.
func runInPlace(ctx context.Context, prog *Program, db *Database, opts Options) (*engine, *Result, error) {
	e, err := newEngine(ctx, prog, db, opts)
	if err != nil {
		return nil, nil, err
	}
	defer e.release()
	start := time.Now()
	e.startPool()
	err = e.run()
	e.stopPool()
	res, err := e.finish(start, err)
	return e, res, err
}

// newEngine analyzes and compiles the program and builds an engine bound to
// ctx. The caller must invoke release (directly or via finish-completing
// wrappers) so any Options.Timeout timer is stopped.
func newEngine(ctx context.Context, prog *Program, db *Database, opts Options) (*engine, error) {
	an, err := Analyze(prog)
	if err != nil {
		return nil, err
	}
	return newEngineAnalyzed(ctx, prog, an, db, opts, nil)
}

// newEngineAnalyzed is newEngine for callers that already hold the program's
// analysis — the maintenance path runs the same three derived programs on
// every batch and re-analyzing them per Apply would dominate small batches.
// cached, when non-nil, supplies pre-compiled rules for the same program; it
// is only sound for aggregate-free programs evaluated one run at a time,
// because aggregate rules accumulate state in their compiled form.
func newEngineAnalyzed(ctx context.Context, prog *Program, an *Analysis, db *Database, opts Options, cached []*cRule) (*engine, error) {
	e := &engine{prog: prog, an: an, db: db, opts: opts, ctx: ctx, cachedRules: cached}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	if opts.Timeout > 0 {
		e.ctx, e.ctxCancel = context.WithTimeout(e.ctx, opts.Timeout)
	}
	if e.opts.MaxRounds == 0 {
		e.opts.MaxRounds = defaultMaxRounds
	}
	if e.opts.Provenance {
		e.prov = map[string]derivation{}
	}
	if err := e.prepare(); err != nil {
		e.release()
		return nil, err
	}
	if opts.Trace != nil {
		e.trace = opts.Trace.StartRun()
		for _, cr := range e.rules {
			e.trace.DeclareRule(cr.idx, cr.rule.Line, ruleLabel(cr))
		}
	}
	return e, nil
}

// release stops the engine's own timeout timer, if any.
func (e *engine) release() {
	if e.ctxCancel != nil {
		e.ctxCancel()
		e.ctxCancel = nil
	}
}

// finish builds the Result from the engine state, canonicalizes interruption
// errors, and records the outcome in the trace and the process counters. The
// Result is non-nil even on error, so interrupted runs surface their partial
// statistics (and partially saturated database) next to the typed error.
func (e *engine) finish(start time.Time, err error) (*Result, error) {
	err = canonicalRunErr(err)
	stats := RunStats{Rounds: e.rounds, FactsDerived: e.derived, Duration: time.Since(start)}
	status := statusOf(err)
	if e.trace != nil {
		e.trace.Finish(status, e.rounds, e.derived, stats.Duration)
	}
	c := &obs.Engine
	c.Runs.Add(1)
	c.Rounds.Add(int64(stats.Rounds))
	c.Derived.Add(int64(stats.FactsDerived))
	switch status {
	case "canceled":
		c.Canceled.Add(1)
	case "timeout":
		c.TimedOut.Add(1)
	case "error":
		c.Errored.Add(1)
	}
	return &Result{DB: e.db, Analysis: e.an, Stats: stats, prov: e.prov}, err
}

// ruleLabel names a rule by its head predicates.
func ruleLabel(cr *cRule) string {
	seen := map[string]bool{}
	var preds []string
	for _, h := range cr.heads {
		if !seen[h.pred] {
			seen[h.pred] = true
			preds = append(preds, h.pred)
		}
	}
	return strings.Join(preds, ",")
}

// engine holds the state of one reasoning run.
type engine struct {
	prog *Program
	an   *Analysis
	db   *Database
	opts Options
	// ctx carries the cancellation signal; checkCtx polls it at round and
	// shard boundaries. ctxCancel stops the Options.Timeout timer.
	ctx       context.Context
	ctxCancel context.CancelFunc
	// trace is this run's section of Options.Trace; nil disables recording.
	// curFirings/curProbes accumulate the counters of the evaluation in
	// flight (sequential directly, sharded after the merge barrier).
	trace      *obs.RunTrace
	curFirings int64
	curProbes  int64
	// pool is the worker pool for parallel rule evaluation; nil when the
	// run is sequential (Workers <= 1, or Provenance is on). shardBufs holds
	// each shard's emissions per head of the rule under sharded evaluation
	// ([shard][head]); kept across the run's sharded evaluations, dropped
	// with the pool.
	pool      *workerPool
	shardBufs [][]headBuf

	rules       []*cRule
	cachedRules []*cRule // pre-compiled rules to adopt instead of compiling
	rounds      int
	derived     int

	// headScratch and exScratch are the reusable head-row and
	// existential-value buffers of the sequential emit sink; parallel shards
	// buffer emissions per shard instead and never call emit.
	headScratch []cell
	exScratch   []value.Value

	// Provenance bookkeeping (Options.Provenance): the stack of body facts
	// matched by the evaluation in progress, and the first derivation of
	// every derived fact.
	parentStack []parentRef
	inStratAgg  bool
	prov        map[string]derivation
}

type stepKind uint8

const (
	stepJoin stepKind = iota
	stepNeg
	stepCond
	stepAssign
	stepAgg
)

// cStep is a compiled body literal.
type cStep struct {
	kind stepKind
	pred string

	// For join/neg steps: per-position description of the atom arguments.
	argConst []value.Value // constant at position, or zero Value
	argSlot  []int         // variable slot at position, or -1 for constants
	// binderPos are positions whose variable is first bound by this step;
	// checkPos are positions repeating a variable bound earlier in the same
	// step (p(X,X) with X fresh).
	binderPos []int
	checkPos  []int
	// staticMask/staticKey cover positions bound before this step begins
	// (constants and variables bound by earlier steps).
	staticMask     uint64
	staticKeySlots []int         // slots in position order, -1 for const
	staticKeyConst []value.Value // const per masked position (when slot -1)

	expr       *Expr
	assignSlot int // stepAssign: target slot; -1 when the expr is a condition

	agg          *Aggregate
	contribSlots []int // monotonic aggregate: slots of the contributor variables
}

// cHeadArg describes one head atom argument.
type cHeadArg struct {
	kind    headArgKind
	cval    value.Value
	slot    int
	exIdx   int        // existential variable: index into existFunctors
	functor string     // explicit Skolem functor
	skArgs  []cHeadArg // Skolem arguments (const or slot only)
}

type headArgKind uint8

const (
	headConst headArgKind = iota
	headSlot
	headExist
	headSkolem
)

type cHead struct {
	pred string
	args []cHeadArg
}

// cRule is a compiled rule with its evaluation plan.
type cRule struct {
	idx   int
	rule  Rule
	slots map[string]int
	steps []cStep
	heads []cHead

	// existFunctors holds the generated Skolem functor of each existential
	// head variable, in sorted variable-name order; frontierSlots are the
	// universal head variable slots, in sorted name order, used as Skolem
	// arguments.
	existFunctors []string
	frontierSlots []int

	aggStep    int // index into steps of the aggregate assignment, or -1
	stratAgg   bool
	groupSlots []int    // slots of the grouping variables (stratified + monotonic)
	mono       *monoAgg // the monotonic aggregate's state; nil without one

	// touchesGrow reports whether any body atom reads a predicate that grows
	// during this rule's stratum fixpoint; growOccs are the indices of such
	// join steps.
	growOccs []int
}

// slotEnv adapts the slot array to the expression Env interface. Only its
// pointer is an Env, so an evaluation passes one pointer and boxes nothing.
type slotEnv struct {
	slots []value.Value
	names map[string]int
}

func (s *slotEnv) Lookup(name string) (value.Value, bool) {
	i, ok := s.names[name]
	if !ok {
		return value.Value{}, false
	}
	v := s.slots[i]
	return v, !v.IsZero()
}

// prepare validates arities, creates relations for every predicate, takes a
// private mutable copy of every head predicate the database holds sealed (the
// run writes to those and to nothing else), and compiles all rules.
func (e *engine) prepare() error {
	arities := map[string]int{}
	heads := map[string]bool{}
	note := func(pred string, n int, line int) error {
		if prev, ok := arities[pred]; ok && prev != n {
			return fmt.Errorf("vadalog: line %d: predicate %s used with arity %d and %d", line, pred, n, prev)
		}
		arities[pred] = n
		return nil
	}
	for _, r := range e.prog.Rules {
		for _, h := range r.Head {
			if err := note(h.Pred, len(h.Args), r.Line); err != nil {
				return err
			}
			heads[h.Pred] = true
		}
		for _, l := range r.Body {
			if l.Kind == LitAtom || l.Kind == LitNegAtom {
				if err := note(l.Atom.Pred, len(l.Atom.Args), r.Line); err != nil {
					return err
				}
			}
		}
	}
	for pred, n := range arities {
		if rel := e.db.Relation(pred); rel != nil {
			if rel.Arity != n {
				return fmt.Errorf("vadalog: predicate %s has arity %d in program but %d in database", pred, n, rel.Arity)
			}
			if heads[pred] {
				e.db.mutable(pred)
			}
			continue
		}
		if _, err := e.db.EnsureRelation(pred, n); err != nil {
			return err
		}
	}
	if e.cachedRules != nil {
		e.rules = e.cachedRules
		return nil
	}
	for i := range e.prog.Rules {
		cr, err := compileProgRule(e.prog, i)
		if err != nil {
			return err
		}
		e.rules = append(e.rules, cr)
	}
	return nil
}

// compileProgRule compiles one rule of the program. The result depends only
// on the program text, so callers that re-run the same program (the
// maintenance path) compile once and reuse.
func compileProgRule(prog *Program, idx int) (*cRule, error) {
	r := prog.Rules[idx]
	cr := &cRule{idx: idx, rule: r, slots: map[string]int{}, aggStep: -1}
	slotOf := func(name string) int {
		if s, ok := cr.slots[name]; ok {
			return s
		}
		s := len(cr.slots)
		cr.slots[name] = s
		return s
	}

	uses := varUses(r)
	bound := map[string]bool{}
	for _, l := range r.Body {
		switch l.Kind {
		case LitAtom, LitNegAtom:
			st := cStep{kind: stepJoin, pred: l.Atom.Pred}
			if l.Kind == LitNegAtom {
				st.kind = stepNeg
			}
			n := len(l.Atom.Args)
			st.argConst = make([]value.Value, n)
			st.argSlot = make([]int, n)
			boundInStep := map[string]bool{}
			for i, t := range l.Atom.Args {
				switch t := t.(type) {
				case Const:
					st.argSlot[i] = -1
					st.argConst[i] = t.Value
					st.staticMask |= 1 << uint(i)
					st.staticKeySlots = append(st.staticKeySlots, -1)
					st.staticKeyConst = append(st.staticKeyConst, t.Value)
				case Var:
					slot := slotOf(t.Name)
					st.argSlot[i] = slot
					switch {
					case bound[t.Name]:
						st.staticMask |= 1 << uint(i)
						st.staticKeySlots = append(st.staticKeySlots, slot)
						st.staticKeyConst = append(st.staticKeyConst, value.Value{})
					case boundInStep[t.Name]:
						st.checkPos = append(st.checkPos, i)
					default:
						if l.Kind == LitNegAtom || uses[t.Name] == 1 {
							// A variable occurring nowhere else is a
							// wildcard: nothing reads its binding, so the
							// join does not read its column. (Safety checks
							// the named variables of negated atoms.)
							continue
						}
						st.binderPos = append(st.binderPos, i)
						boundInStep[t.Name] = true
					}
				default:
					return nil, fmt.Errorf("vadalog: rule %d (line %d): Skolem terms are not allowed in bodies", idx, r.Line)
				}
			}
			if l.Kind == LitAtom {
				for name := range boundInStep {
					bound[name] = true
				}
			}
			cr.steps = append(cr.steps, st)
		case LitExpr:
			target, isAssign := l.Expr.assignTarget()
			if isAssign && !bound[target] {
				st := cStep{pred: "", expr: l.Expr.Right, assignSlot: slotOf(target)}
				if agg := l.Expr.findAggregate(); agg != nil {
					st.kind = stepAgg
					st.agg = agg
					if cr.aggStep >= 0 {
						return nil, fmt.Errorf("vadalog: rule %d (line %d): multiple aggregates", idx, r.Line)
					}
					cr.aggStep = len(cr.steps)
					cr.stratAgg = !agg.Monotonic()
					if agg.Monotonic() {
						for _, name := range agg.Contributors {
							st.contribSlots = append(st.contribSlots, slotOf(name))
						}
					}
				} else {
					st.kind = stepAssign
				}
				bound[target] = true
				cr.steps = append(cr.steps, st)
			} else {
				cr.steps = append(cr.steps, cStep{kind: stepCond, expr: l.Expr, assignSlot: -1})
			}
		}
	}

	// Heads: resolve slots, existentials and Skolem functors.
	exNames := append([]string(nil), r.ExistentialVars()...)
	sort.Strings(exNames)
	exVars := map[string]int{} // existential variable → index in existFunctors
	for i, v := range exNames {
		exVars[v] = i
		cr.existFunctors = append(cr.existFunctors, fmt.Sprintf("ex_r%d_%s", idx, v))
	}
	// Frontier: universal head variables, sorted by name for determinism.
	var frontier []string
	for _, v := range r.HeadVars() {
		if _, ex := exVars[v]; !ex {
			frontier = append(frontier, v)
		}
	}
	sort.Strings(frontier)
	for _, v := range frontier {
		s, ok := cr.slots[v]
		if !ok {
			return nil, fmt.Errorf("vadalog: rule %d (line %d): head variable %s neither bound nor existential", idx, r.Line, v)
		}
		cr.frontierSlots = append(cr.frontierSlots, s)
	}

	var compileHeadArg func(t Term) (cHeadArg, error)
	compileHeadArg = func(t Term) (cHeadArg, error) {
		switch t := t.(type) {
		case Const:
			return cHeadArg{kind: headConst, cval: t.Value}, nil
		case Var:
			if i, ex := exVars[t.Name]; ex {
				return cHeadArg{kind: headExist, exIdx: i}, nil
			}
			return cHeadArg{kind: headSlot, slot: cr.slots[t.Name]}, nil
		case SkolemTerm:
			ha := cHeadArg{kind: headSkolem, functor: t.Functor}
			for _, a := range t.Args {
				sub, err := compileHeadArg(a)
				if err != nil {
					return cHeadArg{}, err
				}
				if sub.kind == headExist || sub.kind == headSkolem {
					return cHeadArg{}, fmt.Errorf("vadalog: rule %d: Skolem arguments must be universal variables or constants", idx)
				}
				ha.skArgs = append(ha.skArgs, sub)
			}
			return ha, nil
		default:
			return cHeadArg{}, fmt.Errorf("vadalog: rule %d: unsupported head term", idx)
		}
	}
	for _, h := range r.Head {
		ch := cHead{pred: h.Pred}
		for _, t := range h.Args {
			ha, err := compileHeadArg(t)
			if err != nil {
				return nil, err
			}
			ch.args = append(ch.args, ha)
		}
		cr.heads = append(cr.heads, ch)
	}

	// Grouping variables for aggregates: head variables bound by the body,
	// excluding the aggregate target, in sorted name order.
	if cr.aggStep >= 0 {
		target := -1
		target = cr.steps[cr.aggStep].assignSlot
		groupNames := map[string]bool{}
		for _, v := range r.HeadVars() {
			if _, ex := exVars[v]; ex {
				continue
			}
			if s, ok := cr.slots[v]; ok && s != target {
				groupNames[v] = true
			}
		}
		var names []string
		for n := range groupNames {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			cr.groupSlots = append(cr.groupSlots, cr.slots[n])
		}
		if st := &cr.steps[cr.aggStep]; !cr.stratAgg {
			cr.mono = newMonoAgg(st.agg.Op, cr.groupSlots, st.contribSlots)
		}
		// A stratified aggregate's groups are complete only after the
		// collect phase, so the steps after it run once per group and may
		// not enumerate facts.
		for _, st := range cr.steps[cr.aggStep+1:] {
			if cr.stratAgg && st.kind != stepCond && st.kind != stepAssign {
				return nil, fmt.Errorf("vadalog: rule %d (line %d): atoms may not follow a stratified aggregate", idx, r.Line)
			}
		}
	}

	// Empty-body rules must be ground facts.
	if len(r.Body) == 0 {
		for _, h := range r.Head {
			for _, t := range h.Args {
				if _, ok := t.(Const); !ok {
					return nil, fmt.Errorf("vadalog: rule %d (line %d): facts must be ground", idx, r.Line)
				}
			}
		}
	}
	return cr, nil
}

// varUses counts the occurrences of every variable of a rule: one per atom
// argument, head and Skolem arguments included, and one per expression that
// mentions it.
func varUses(r Rule) map[string]int {
	uses := map[string]int{}
	var term func(t Term)
	term = func(t Term) {
		switch t := t.(type) {
		case Var:
			uses[t.Name]++
		case SkolemTerm:
			for _, a := range t.Args {
				term(a)
			}
		}
	}
	for _, h := range r.Head {
		for _, t := range h.Args {
			term(t)
		}
	}
	for _, l := range r.Body {
		if l.Kind != LitExpr {
			for _, t := range l.Atom.Args {
				term(t)
			}
			continue
		}
		set := map[string]bool{}
		l.Expr.vars(set)
		for v := range set {
			uses[v]++
		}
	}
	return uses
}

// checkCtx polls the run context; it returns the raw context error, which
// finish later canonicalizes to ErrCanceled/ErrTimeout. Called at stratum,
// round and rule boundaries (shard boundaries poll inside runShards).
func (e *engine) checkCtx() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// run evaluates the program stratum by stratum. Each stratum runs under the
// fault guard and the OnFault policy (faultpolicy.go).
func (e *engine) run() error {
	for si, stratum := range e.an.Strata {
		if err := e.runGuarded(si, stratum); err != nil {
			return err
		}
	}
	return nil
}

func (e *engine) runStratum(stratumIdx int, ruleIdxs []int) error {
	if err := e.checkCtx(); err != nil {
		return err
	}
	// Predicates that grow during this stratum's fixpoint.
	grow := headPreds(e.prog, ruleIdxs)
	var fixpointRules []*cRule
	var stratAggRules []*cRule
	for _, ri := range ruleIdxs {
		cr := e.rules[ri]
		cr.growOccs = cr.growOccs[:0]
		for si, st := range cr.steps {
			if st.kind == stepJoin && grow[st.pred] {
				cr.growOccs = append(cr.growOccs, si)
			}
		}
		if cr.stratAgg {
			stratAggRules = append(stratAggRules, cr)
		} else {
			fixpointRules = append(fixpointRules, cr)
		}
	}

	// Stratified-aggregate rules read only lower strata; run them once,
	// before the fixpoint, so their results feed the stratum's other rules.
	for _, cr := range stratAggRules {
		if _, err := e.evalAgg(cr); err != nil {
			return err
		}
	}

	// Round 0: full evaluation of every rule.
	startLens := e.lens()
	total := 0
	for _, cr := range fixpointRules {
		n, err := e.eval(cr, fullWindows{})
		if err != nil {
			return err
		}
		total += n
	}
	if e.trace != nil {
		e.trace.AddRound(stratumIdx, 0, total)
	}
	if total == 0 {
		return nil
	}

	return e.deltaRounds(stratumIdx, fixpointRules, startLens)
}

// deltaRounds runs a stratum to its fixpoint from a seeded delta: each round
// joins every rule's growing occurrences against the facts added since the
// previous round's length snapshot (prev for the first round), or, with
// Options.Naive, re-evaluates those rules in full. An occurrence whose window
// is empty this round is not evaluated.
func (e *engine) deltaRounds(stratumIdx int, rules []*cRule, prev map[string]int) error {
	for round := 1; ; round++ {
		e.rounds++
		if err := e.checkCtx(); err != nil {
			return err
		}
		if round > e.opts.MaxRounds {
			return fmt.Errorf("vadalog: fixpoint did not converge within %d rounds", e.opts.MaxRounds)
		}
		cur := e.lens()
		inserted := 0
		for _, cr := range rules {
			if len(cr.growOccs) == 0 {
				continue
			}
			if e.opts.Naive {
				n, err := e.eval(cr, fullWindows{})
				if err != nil {
					return err
				}
				inserted += n
				continue
			}
			for _, occ := range cr.growOccs {
				// No match completes through an empty delta window. Only a
				// monotonic aggregate before the delta step sees the
				// evaluation anyway: it absorbs the contributors it reaches.
				if pred := cr.steps[occ].pred; prev[pred] == cur[pred] && !(cr.mono != nil && cr.aggStep < occ) {
					continue
				}
				w := deltaWindows{prev: prev, cur: cur, deltaStep: occ, growOccs: cr.growOccs}
				n, err := e.eval(cr, w)
				if err != nil {
					return err
				}
				inserted += n
			}
		}
		if e.trace != nil {
			e.trace.AddRound(stratumIdx, round, inserted)
		}
		if inserted == 0 {
			return nil
		}
		prev = cur
	}
}

// lens snapshots the current length of every relation.
func (e *engine) lens() map[string]int {
	out := make(map[string]int, len(e.db.rels))
	for pred, r := range e.db.rels {
		out[pred] = r.Len()
	}
	return out
}

// windows abstracts the fact windows visible to each join step of a rule
// evaluation variant.
type windows interface {
	// rangeFor returns the [lo,hi) fact positions visible at step si; hi of
	// -1 means "live" (all facts currently in the relation).
	rangeFor(si int, pred string) (int, int)
}

// fullWindows sees everything (round-0 and non-recursive evaluation).
type fullWindows struct{}

func (fullWindows) rangeFor(int, string) (int, int) { return 0, -1 }

// deltaWindows implements the standard semi-naive decomposition: the
// designated occurrence reads only the delta window, occurrences of growing
// predicates before it read the pre-delta prefix, later ones read everything.
type deltaWindows struct {
	prev, cur map[string]int
	deltaStep int
	growOccs  []int
}

func (w deltaWindows) rangeFor(si int, pred string) (int, int) {
	isGrow := false
	for _, o := range w.growOccs {
		if o == si {
			isGrow = true
			break
		}
	}
	if !isGrow {
		return 0, -1
	}
	switch {
	case si == w.deltaStep:
		return w.prev[pred], w.cur[pred]
	case si < w.deltaStep:
		return 0, w.prev[pred]
	default:
		return 0, -1
	}
}

// eval evaluates a rule under the given windows, fanning the driver window
// out to the worker pool when the run is parallel and the rule is shardable.
// The pool only exists at all for runs without provenance (whose "first
// derivation" needs a global insertion order) and without aggregates
// (hasAggregate), so no rule that reaches the pool carries either.
func (e *engine) eval(cr *cRule, w windows) (int, error) {
	if err := e.checkCtx(); err != nil {
		return 0, err
	}
	if e.trace == nil {
		return e.evalDispatch(cr, w)
	}
	e.curFirings, e.curProbes = 0, 0
	start := time.Now()
	n, err := e.evalDispatch(cr, w)
	e.trace.AddEval(cr.idx, e.curFirings, int64(n), e.curProbes, time.Since(start))
	return n, err
}

// evalDispatch routes a rule evaluation to the sharded or sequential engine.
func (e *engine) evalDispatch(cr *cRule, w windows) (int, error) {
	if e.pool != nil {
		if driver := driverStep(cr, w); driver >= 0 {
			return e.evalRuleSharded(cr, w, driver)
		}
	}
	return e.evalRule(cr, w)
}

// evalAgg is the traced wrapper around evalStratifiedAgg, mirroring eval.
func (e *engine) evalAgg(cr *cRule) (int, error) {
	if err := e.checkCtx(); err != nil {
		return 0, err
	}
	if e.trace == nil {
		return e.evalStratifiedAgg(cr)
	}
	e.curFirings, e.curProbes = 0, 0
	start := time.Now()
	n, err := e.evalStratifiedAgg(cr)
	e.trace.AddEval(cr.idx, e.curFirings, int64(n), e.curProbes, time.Since(start))
	return n, err
}

// driverStep picks the join step whose window partitions the rule's work: the
// delta occurrence in semi-naive rounds, the first join otherwise. -1 means
// the rule enumerates nothing (fact rules) and is evaluated in place.
func driverStep(cr *cRule, w windows) int {
	if dw, ok := w.(deltaWindows); ok {
		return dw.deltaStep
	}
	for si := range cr.steps {
		if cr.steps[si].kind == stepJoin {
			return si
		}
	}
	return -1
}

// evalRule evaluates a rule sequentially under the given windows, returning
// the number of new facts inserted.
func (e *engine) evalRule(cr *cRule, w windows) (int, error) {
	inserted := 0
	c := newEvalCtx(e, cr, w, len(cr.steps), e.stepRelations(cr))
	heads := e.headRelations(cr)
	c.onMatch = func() error {
		n, err := e.emit(cr, heads, c.slots)
		inserted += n
		return err
	}
	err := c.step(0)
	e.curFirings += c.firings
	e.curProbes += c.probes
	if err != nil {
		return 0, err
	}
	return inserted, nil
}

// evalCtx is one traversal of a rule body: a private slot array, the fact
// windows, an optional shard restriction on the driver step, and the sink
// invoked on every complete match. Sequential evaluation uses a single ctx
// whose sink inserts directly; parallel evaluation runs one ctx per shard
// with a buffering sink (parallel.go); stratified aggregation stops the
// traversal at the aggregate step and accumulates groups, then resumes it
// after the aggregate step once per group.
type evalCtx struct {
	e     *engine
	cr    *cRule
	w     windows
	slots []value.Value
	// rels holds each join and negation step's relation, resolved once per
	// evaluation (stepRelations); nil at the other steps.
	rels []*Relation

	// limit is the step index where the traversal stops and onMatch fires:
	// len(cr.steps) for full rule evaluation, cr.aggStep for the collect
	// phase of stratified aggregation.
	limit int
	// lenientCond treats non-boolean conditions as false instead of
	// erroring (the semantics of a stratified-aggregate rule, on both sides
	// of the aggregate).
	lenientCond bool

	// shardStep restricts the join enumeration at that step to the absolute
	// fact positions [shardLo, shardHi); -1 leaves every step unrestricted.
	shardStep        int
	shardLo, shardHi int

	// cancelled aborts the traversal cooperatively after another shard of
	// the same evaluation has failed; nil for sequential runs.
	cancelled *atomicBool

	// firings counts complete body matches and probes the candidate facts
	// visited at join steps. The counters are local to the traversal (one
	// per shard in parallel runs) and are folded into the engine's current
	// evaluation — and from there into the obs trace — by the caller.
	firings int64
	probes  int64

	// keyBufs holds one reusable lookup-key buffer per step depth, so keyed
	// probes don't allocate per candidate binding. Depths never re-enter
	// themselves within one traversal, and VisitRange only reads the
	// key synchronously, so per-depth reuse is safe.
	keyBufs [][]value.Value

	onMatch func() error

	// env is the expression environment over slots; conditions,
	// assignments and aggregate arguments all evaluate through &env.
	env slotEnv
}

// newEvalCtx returns an unsharded traversal of the rule's body under the
// windows, stopping at step limit, over the step relations rels.
func newEvalCtx(e *engine, cr *cRule, w windows, limit int, rels []*Relation) *evalCtx {
	slots := make([]value.Value, len(cr.slots))
	return &evalCtx{
		e: e, cr: cr, w: w, slots: slots, rels: rels,
		limit:     limit,
		shardStep: -1,
		env:       slotEnv{slots: slots, names: cr.slots},
	}
}

// stepRelations resolves the relation of each join and negation step of the
// rule, once per evaluation instead of once per candidate. prepare has made
// every head relation writable before any rule is evaluated, and a database
// replaces a relation only outside an evaluation (a write through the
// Database to a sealed relation, a Maintainer's recomputation), so the
// pointers stay current for the evaluation and are taken anew for the next.
func (e *engine) stepRelations(cr *cRule) []*Relation {
	rels := make([]*Relation, len(cr.steps))
	for si := range cr.steps {
		if st := &cr.steps[si]; st.kind == stepJoin || st.kind == stepNeg {
			rels[si] = e.db.Relation(st.pred)
		}
	}
	return rels
}

// headRelations resolves the relation of each head of the rule, once per
// evaluation, as stepRelations does its body's.
func (e *engine) headRelations(cr *cRule) []*Relation {
	rels := make([]*Relation, len(cr.heads))
	for hi := range cr.heads {
		rels[hi] = e.db.Relation(cr.heads[hi].pred)
	}
	return rels
}

// errFirstMatch unwinds a FirstMatchOnly traversal back to the leading atom
// after a complete match: the guarded head is fully bound there, so further
// witnesses for the same guard binding can only re-emit the same fact.
var errFirstMatch = errors.New("vadalog: first match found")

func (c *evalCtx) step(si int) error {
	if si == c.limit {
		c.firings++
		if err := c.onMatch(); err != nil {
			return err
		}
		if c.cr.rule.FirstMatchOnly {
			return errFirstMatch
		}
		return nil
	}
	e, cr, slots := c.e, c.cr, c.slots
	st := &cr.steps[si]
	switch st.kind {
	case stepJoin:
		rel := c.rels[si]
		lo, hi := c.w.rangeFor(si, st.pred)
		if hi < 0 {
			hi = rel.Len()
		}
		if si == c.shardStep {
			lo = max(lo, c.shardLo)
			hi = min(hi, c.shardHi)
		}
		if lo >= hi {
			return nil
		}
		visit := func(pos int) error {
			if c.cancelled != nil && c.cancelled.Load() {
				return errEvalCancelled
			}
			c.probes++
			// One branch per candidate picks the relation's form: a mutable
			// relation's row is decoded in place, a sealed one's cells read
			// through its rows.
			var ok bool
			if rel.sealed == nil {
				ok = rel.bindRow(pos, st, slots)
			} else {
				ok = rel.bindCells(pos, st, slots)
			}
			if ok {
				if e.prov != nil {
					e.parentStack = append(e.parentStack, parentRef{pred: st.pred, pos: pos})
				}
				err := c.step(si + 1)
				if e.prov != nil {
					e.parentStack = e.parentStack[:len(e.parentStack)-1]
				}
				if err == errFirstMatch && si == 0 {
					// This leading-atom binding is satisfied; move on to
					// the next one instead of enumerating more witnesses.
					err = nil
				}
				if err != nil {
					return err
				}
			}
			for _, i := range st.binderPos {
				slots[st.argSlot[i]] = value.Value{}
			}
			return nil
		}
		// Range-restricted probe: the window is applied before collision
		// verification, and candidates are verified lazily so a
		// FirstMatchOnly cut stops before the rest of the bucket is checked.
		return rel.VisitRange(st.staticMask, c.stepKey(si, st), lo, hi, visit)
	case stepNeg:
		if c.rels[si].exists(st.staticMask, c.stepKey(si, st)) {
			return nil // some matching fact exists: negation fails
		}
		return c.step(si + 1)
	case stepCond:
		v, err := st.expr.Eval(&c.env)
		if err != nil {
			return err
		}
		if c.lenientCond {
			if !v.Truthy() {
				return nil
			}
			return c.step(si + 1)
		}
		if v.K != value.Bool {
			return fmt.Errorf("vadalog: rule %d (line %d): condition %s is not boolean", cr.idx, cr.rule.Line, st.expr)
		}
		if !v.B {
			return nil
		}
		return c.step(si + 1)
	case stepAssign:
		v, err := st.expr.Eval(&c.env)
		if err != nil {
			return err
		}
		slots[st.assignSlot] = v
		err = c.step(si + 1)
		slots[st.assignSlot] = value.Value{}
		return err
	case stepAgg:
		return c.stepMonotonicAgg(si, st)
	default:
		return fmt.Errorf("vadalog: invalid step kind")
	}
}

// stepKey fills this depth's reusable buffer with the lookup key values for
// the step's statically bound positions.
func (c *evalCtx) stepKey(si int, st *cStep) []value.Value {
	if st.staticMask == 0 {
		return nil
	}
	if c.keyBufs == nil {
		c.keyBufs = make([][]value.Value, len(c.cr.steps))
	}
	out := c.keyBufs[si]
	if cap(out) < len(st.staticKeySlots) {
		out = make([]value.Value, len(st.staticKeySlots))
		c.keyBufs[si] = out
	}
	out = out[:len(st.staticKeySlots)]
	for i, slot := range st.staticKeySlots {
		if slot < 0 {
			out[i] = st.staticKeyConst[i]
		} else {
			out[i] = c.slots[slot]
		}
	}
	return out
}

// stepMonotonicAgg advances one body match through a monotonic aggregate:
// unseen contributor tuples update the group accumulator and continue with
// the new running value bound; seen contributors are pruned, which both
// guarantees convergence and makes re-derivations across semi-naive rounds
// harmless (DESIGN.md, "Monotonic aggregation"). The state records a
// contributor only once its fold has succeeded: one whose fold fails stays
// unseen, so every later evaluation that meets it fails as well.
func (c *evalCtx) stepMonotonicAgg(si int, st *cStep) error {
	cr, slots := c.cr, c.slots
	for i, s := range st.contribSlots {
		if slots[s].IsZero() {
			return fmt.Errorf("vadalog: rule %d: contributor %s unbound", cr.idx, st.agg.Contributors[i])
		}
	}
	m := cr.mono
	k, seen := m.probe(slots)
	if seen {
		return nil
	}
	acc := m.accum(k.g)
	var av value.Value
	if st.agg.Arg != nil {
		v, err := st.agg.Arg.Eval(&c.env)
		if err != nil {
			return err
		}
		av = v
	}
	if err := acc.update(st.agg.Op, av, value.Value{}); err != nil {
		return err
	}
	m.admit(k, &acc, slots)
	slots[st.assignSlot] = acc.current(st.agg.Op)
	err := c.step(si + 1)
	slots[st.assignSlot] = value.Value{}
	return err
}

// evalStratifiedAgg evaluates a rule containing a stratified aggregate: it
// enumerates all body matches up to the aggregate, folds them into their
// groups, then runs the remaining steps once per group (emitAggGroups). It
// evaluates sequentially in every run: a program with an aggregate starts no
// pool (hasAggregate).
func (e *engine) evalStratifiedAgg(cr *cRule) (int, error) {
	groups := newGroupTable(cr.steps[cr.aggStep].agg.Op, cr.groupSlots)
	c := newEvalCtx(e, cr, fullWindows{}, cr.aggStep, e.stepRelations(cr))
	c.lenientCond = true
	c.onMatch = func() error { return c.accumulateGroup(&groups) }
	err := c.step(0)
	e.curFirings += c.firings
	e.curProbes += c.probes
	if err != nil {
		return 0, err
	}
	return e.emitAggGroups(cr, &groups)
}

// accumulateGroup folds one complete pre-aggregate body match into the group
// the grouping variables bind. Contributor-free aggregates absorb every
// distinct body match; listed contributors would make the aggregate
// monotonic, so they cannot reach this path. Only a new group takes room in
// the table, and no key is built.
func (c *evalCtx) accumulateGroup(groups *groupTable) error {
	aggSt, slots := &c.cr.steps[c.cr.aggStep], c.slots
	k := groups.find(hashSlots(fnvOffset64, groups.slots, slots), slots)
	if k.g < 0 {
		k.g = groups.add(k, slots)
	}
	var av, av2 value.Value
	if aggSt.agg.Arg != nil {
		v, err := aggSt.agg.Arg.Eval(&c.env)
		if err != nil {
			return err
		}
		av = v
	}
	if aggSt.agg.Arg2 != nil {
		v, err := aggSt.agg.Arg2.Eval(&c.env)
		if err != nil {
			return err
		}
		av2 = v
	}
	acc := groups.accum(k.g)
	if err := acc.update(groups.op, av, av2); err != nil {
		return err
	}
	groups.store(k.g, &acc)
	return nil
}

// emitAggGroups binds every collected group with its aggregate value and
// runs the post-aggregate steps over it, emitting the rule heads. Groups go
// in ascending order of their canonical keys, each encoded once into one
// shared buffer: the head relation's insertion order, which every downstream
// fold reads, is that order. The firings of the post-aggregate steps stay out
// of the trace, which counts the collect phase's body matches.
func (e *engine) emitAggGroups(cr *cRule, groups *groupTable) (int, error) {
	n := groups.len()
	var keys []byte
	offs := make([]int, n+1)
	ids := make([]int32, n)
	vals := make([]value.Value, len(cr.groupSlots))
	for g := range n {
		decodeCells(vals, groups.vals.row(g))
		keys = appendKey(keys, vals)
		offs[g+1], ids[g] = len(keys), g
	}
	key := func(g int32) []byte { return keys[offs[g]:offs[g+1]] }
	slices.SortFunc(ids, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })

	aggSt := &cr.steps[cr.aggStep]
	inserted := 0
	c := newEvalCtx(e, cr, fullWindows{}, len(cr.steps), e.stepRelations(cr))
	c.lenientCond = true
	heads := e.headRelations(cr)
	c.onMatch = func() error {
		n, err := e.emit(cr, heads, c.slots)
		inserted += n
		return err
	}
	e.inStratAgg = true
	defer func() { e.inStratAgg = false }()
	for _, g := range ids {
		row := groups.vals.row(g)
		for i, s := range cr.groupSlots {
			c.slots[s] = row[i].value()
		}
		acc := groups.accum(g)
		c.slots[aggSt.assignSlot] = acc.current(groups.op)
		if err := c.step(cr.aggStep + 1); err != nil {
			return inserted, err
		}
	}
	return inserted, nil
}

// emit instantiates the rule heads under the current slots and inserts the
// resulting facts directly (the sequential sink) into rels, the heads'
// relations (headRelations). Head values are encoded into a reusable
// scratch row that the relation copies into its pages only on genuine
// insertion, so the firings of a fixpoint round allocate nothing per fact.
// prepare gave every head relation its head's arity.
func (e *engine) emit(cr *cRule, rels []*Relation, slots []value.Value) (int, error) {
	var exVals []value.Value
	exVals, e.exScratch = skolemExVals(cr, slots, e.exScratch)
	inserted := 0
	for hi := range cr.heads {
		h := &cr.heads[hi]
		if cap(e.headScratch) < len(h.args) {
			e.headScratch = make([]cell, len(h.args))
		}
		row := e.headScratch[:len(h.args)]
		if err := resolveHead(cr, h, slots, exVals, row); err != nil {
			return inserted, err
		}
		rel := rels[hi]
		if rel.sealed != nil {
			return inserted, ErrSealed
		}
		if !rel.insertHashed(hashCells(row), row) {
			continue
		}
		if e.prov != nil {
			d := derivation{ruleIdx: cr.idx, line: cr.rule.Line, viaAggregate: e.inStratAgg}
			if !e.inStratAgg {
				d.parents = append([]parentRef(nil), e.parentStack...)
			}
			f := make(Fact, len(row))
			decodeCells(f, row)
			e.prov[provKey(h.pred, f)] = d
		}
		inserted++
		e.derived++
		if e.opts.MaxFacts > 0 && e.derived > e.opts.MaxFacts {
			return inserted, errMaxFacts(e.opts.MaxFacts)
		}
	}
	return inserted, nil
}

func errMaxFacts(limit int) error {
	return fmt.Errorf("vadalog: derived fact limit %d exceeded", limit)
}

// resolveHead instantiates head atom h of the rule under the slots into
// row, one encoded value per argument. Existential variables are realized by
// skolemExVals, once per firing and shared across the head conjunction.
func resolveHead(cr *cRule, h *cHead, slots, exVals []value.Value, row []cell) error {
	for i := range h.args {
		v, err := resolveHeadArg(cr, slots, exVals, &h.args[i])
		if err != nil {
			return err
		}
		row[i] = encodeCell(v)
	}
	return nil
}

// skolemExVals realizes the rule's existential head variables, in
// existFunctors order, as frontier-keyed Skolem values under the current
// slots; nil when the rule has none. The frontier and the values are laid out
// in buf, which comes back grown for the caller's next firing.
func skolemExVals(cr *cRule, slots, buf []value.Value) (exVals, grown []value.Value) {
	if len(cr.existFunctors) == 0 {
		return nil, buf
	}
	nf := len(cr.frontierSlots)
	buf = slices.Grow(buf[:0], nf+len(cr.existFunctors))[:nf+len(cr.existFunctors)]
	frontier, exVals := buf[:nf], buf[nf:]
	for i, s := range cr.frontierSlots {
		frontier[i] = slots[s]
	}
	for i, functor := range cr.existFunctors {
		exVals[i] = value.Skolem(functor, frontier...)
	}
	return exVals, buf
}

// resolveHeadArg materializes one head argument under the current slots. A
// top-level function rather than a closure inside resolveHead: recursive
// closures allocate, and this runs once per head argument per firing.
func resolveHeadArg(cr *cRule, slots, exVals []value.Value, ha *cHeadArg) (value.Value, error) {
	switch ha.kind {
	case headConst:
		return ha.cval, nil
	case headSlot:
		v := slots[ha.slot]
		if v.IsZero() {
			return value.Value{}, fmt.Errorf("vadalog: rule %d: unbound head slot", cr.idx)
		}
		return v, nil
	case headExist:
		return exVals[ha.exIdx], nil
	case headSkolem:
		args := make([]value.Value, len(ha.skArgs))
		for i := range ha.skArgs {
			v, err := resolveHeadArg(cr, slots, exVals, &ha.skArgs[i])
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		return value.Skolem(ha.functor, args...), nil
	default:
		return value.Value{}, fmt.Errorf("vadalog: invalid head argument")
	}
}
