package vadalog

import (
	"context"
	"fmt"
	"time"

	"repro/internal/value"
)

// Incremental maintenance of a saturated program: Section 6 of the paper
// describes accumulating changes and applying them to the target database in
// batches; the natural next step — which its "performance considerations"
// discussion gestures at — is to propagate new ground facts through the
// existing fixpoint instead of recomputing it. This file implements that for
// monotonic programs (no stratified negation, no stratified aggregation):
// newly inserted facts become the delta of a resumed semi-naive run, and the
// monotonic-aggregate accumulators persist across propagations.
type Incremental struct {
	eng      *engine
	lastLens map[string]int
}

// NewIncremental runs the initial fixpoint and returns a handle for
// incremental propagation. The database is saturated in place. Programs with
// stratified negation or stratified aggregation are rejected: deletions and
// non-monotonic re-aggregation would require view maintenance, which batch
// recomputation covers.
//
// The initial fixpoint honors ctx and Options.Timeout exactly like RunCtx
// (typed ErrCanceled / ErrTimeout). An interrupted initial run returns the
// error and no handle.
func NewIncremental(ctx context.Context, prog *Program, db *Database, opts Options) (*Incremental, error) {
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Kind == LitNegAtom {
				return nil, fmt.Errorf("vadalog: incremental maintenance requires a negation-free program (rule at line %d)", r.Line)
			}
		}
		if hasStratifiedAggregate(r) {
			return nil, fmt.Errorf("vadalog: incremental maintenance requires monotonic aggregation only (rule at line %d)", r.Line)
		}
	}
	e, err := newEngine(ctx, prog, db, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	e.startPool()
	err = e.run()
	e.stopPool()
	_, err = e.finish(start, err)
	// The construction context (and any Options.Timeout timer) covers only
	// the initial fixpoint; each Propagate installs its own.
	e.release()
	e.ctx = context.Background()
	if err != nil {
		return nil, err
	}
	return &Incremental{eng: e, lastLens: e.lens()}, nil
}

// DB returns the saturated database.
func (inc *Incremental) DB() *Database { return inc.eng.db }

// Result exposes the engine state as a Result, so Explain works over the
// incrementally maintained database (requires Options.Provenance).
func (inc *Incremental) Result() *Result {
	return &Result{DB: inc.eng.db, Analysis: inc.eng.an, prov: inc.eng.prov}
}

// Add inserts a ground fact; it becomes part of the next Propagate delta.
func (inc *Incremental) Add(pred string, vals ...value.Value) error {
	_, err := inc.eng.db.AddFact(pred, vals...)
	return err
}

// Propagate pushes every fact added since the last propagation through the
// fixpoint, returning the number of newly derived facts. Monotonic-aggregate
// accumulators carry over, so running sums continue from their previous
// values exactly as a full recomputation would reach them.
//
// Cancellation of ctx and Options.Timeout interrupt the resumed fixpoint at
// round and shard boundaries with the same typed errors as RunCtx. On
// interruption the already-propagated facts stay in the database and the
// delta baseline is left untouched, so a later Propagate resumes from the
// last completed propagation (re-derivations are deduplicated by insertion).
func (inc *Incremental) Propagate(ctx context.Context) (int, error) {
	e := inc.eng
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		e.ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	before, roundsBefore := e.derived, e.rounds
	start := time.Now()
	e.startPool()
	defer e.stopPool()
	var err error
	for si, stratum := range e.an.Strata {
		if err = e.resumeStratum(si, stratum, inc.lastLens); err != nil {
			break
		}
	}
	err = canonicalRunErr(err)
	e.recordRun(err, RunStats{Rounds: e.rounds - roundsBefore, FactsDerived: e.derived - before, Duration: time.Since(start)})
	if err != nil {
		return e.derived - before, err
	}
	inc.lastLens = e.lens()
	return e.derived - before, nil
}

// resumeStratum runs the stratum's fixpoint treating every relation that
// grew since base as the initial delta (new EDB facts and lower-stratum
// derivations alike).
func (e *engine) resumeStratum(stratumIdx int, ruleIdxs []int, base map[string]int) error {
	if err := e.checkCtx(); err != nil {
		return err
	}
	grow := headPreds(e.prog, ruleIdxs)
	// Changed predicates: anything that grew since the last propagation,
	// plus the stratum's own heads (which may grow during this fixpoint).
	deltaPred := map[string]bool{}
	for pred, rel := range e.db.rels {
		if rel.Len() > base[pred] {
			deltaPred[pred] = true
		}
	}
	for p := range grow {
		deltaPred[p] = true
	}

	rules := make([]*cRule, 0, len(ruleIdxs))
	for _, ri := range ruleIdxs {
		cr := e.rules[ri]
		cr.growOccs = cr.growOccs[:0]
		for si, st := range cr.steps {
			if st.kind == stepJoin && deltaPred[st.pred] {
				cr.growOccs = append(cr.growOccs, si)
			}
		}
		rules = append(rules, cr)
	}
	return e.deltaRounds(stratumIdx, rules, base)
}
