package vadalog

// Parallel semi-naive evaluation.
//
// With Options.Workers >= 2 the engine evaluates each rule by partitioning
// the driver window — the delta window of the designated occurrence in
// semi-naive rounds, the first join's window otherwise — into contiguous
// position shards that a fixed pool of worker goroutines drains. While the
// shards run, the database is strictly read-only: every hash index a rule
// can touch is built up front (prewarmIndexes), and each shard writes its
// head tuples, with their hashes, into paged per-head buffers instead of the
// relations. At the barrier the buffers are inserted in shard index order,
// deduplicated by the relations' own tables (DESIGN.md §7).
//
// Determinism. The shard plan depends only on the window size, never on the
// worker count, and the merge consumes shards in index order, so the
// database contents after every rule evaluation — and therefore the whole
// fixpoint trajectory — are identical for every Workers >= 2. Relative to
// the sequential engine the derived fact *set* is also identical: deferring
// inserts to the barrier only delays self-derived matches to the next
// semi-naive round, which the fixpoint loop absorbs. Two constructs keep a
// run sequential even in parallel: any aggregate, stratified or monotonic
// (hasAggregate), and provenance recording (the "first" derivation needs a
// global order).

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/value"
)

// siteShard is probed at the start of every shard execution; a panic
// injected here lands on a pool goroutine, which is exactly the crash the
// per-shard guard below must contain.
var siteShard = fault.Site("vadalog/shard")

// atomicBool is the cooperative cancellation flag shared by the shards of
// one rule evaluation (aliased so engine.go needs no sync/atomic import).
type atomicBool = atomic.Bool

// errEvalCancelled aborts a shard after another shard of the same
// evaluation failed; it is swallowed by runShards, never returned to callers.
var errEvalCancelled = errors.New("vadalog: evaluation cancelled")

// workerPool is a fixed set of goroutines executing submitted closures. One
// pool lives for the duration of a reasoning run (or one incremental
// propagation) and is reused across every rule evaluation in it.
type workerPool struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, tasks: make(chan func())}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

func (p *workerPool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// runShards executes fn(0) … fn(shards-1) on the pool and waits for all of
// them. Shards are claimed from an atomic counter, so any number of shards
// works with any pool size. On failure the lowest-indexed error among the
// shards that ran is returned, the cancel flag is raised so in-flight
// shards abort cooperatively, and unclaimed shards are skipped. A non-nil
// ctx is polled at every shard boundary: once it is done, no further shard
// starts and its error surfaces like a shard failure (run cancellation
// therefore interrupts between shards, not only between rounds).
func (p *workerPool) runShards(ctx context.Context, shards int, cancel *atomicBool, fn func(shard int) error) error {
	if shards <= 0 {
		return nil
	}
	errs := make([]error, shards)
	var next atomic.Int64
	var done sync.WaitGroup
	body := func() {
		defer done.Done()
		for {
			i := int(next.Add(1) - 1)
			if i >= shards || cancel.Load() {
				return
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					cancel.Store(true)
					return
				}
			}
			// The guard contains panics from the shard body: a panic on a
			// pool goroutine would otherwise kill the process (no recover
			// above us on this stack) and strand done.Wait forever. It
			// surfaces as a *fault.PanicError like any shard failure.
			err := fault.Guard("vadalog/shard", func() error {
				if err := fault.Hit(siteShard); err != nil {
					return err
				}
				return fn(i)
			})
			if err != nil {
				if !errors.Is(err, errEvalCancelled) {
					errs[i] = err
				}
				cancel.Store(true)
				return
			}
		}
	}
	n := min(p.workers, shards)
	done.Add(n)
	for i := 0; i < n; i++ {
		p.tasks <- body
	}
	done.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// startPool creates the worker pool when the run asks for parallelism.
// Provenance runs stay sequential (Options.Provenance documents why).
func (e *engine) startPool() {
	if e.opts.Workers > 1 && e.prov == nil && !e.hasAggregate() {
		e.pool = newWorkerPool(e.opts.Workers)
	}
}

// hasAggregate reports whether any compiled rule carries an aggregate,
// stratified or monotonic. Such programs evaluate sequentially regardless of
// Options.Workers: a running aggregate's emissions depend on the order its
// contributions arrive, and that order is shaped by the insertion order of
// every upstream relation — which deferred shard-order merging cannot
// reproduce. A per-rule fallback would not be enough; only the fully
// sequential engine preserves the emission set.
func (e *engine) hasAggregate() bool {
	for _, cr := range e.rules {
		for _, st := range cr.steps {
			if st.kind == stepAgg {
				return true
			}
		}
	}
	return false
}

func (e *engine) stopPool() {
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
	e.shardBufs = nil
}

// minShardSize is the smallest driver window worth splitting: below it, the
// fan-out barrier costs more than the join work it distributes. maxShards
// bounds the plan so the merge stays cheap on huge windows. Variables rather
// than constants so tests can shrink them to force the parallel path on
// small inputs; production code never mutates them.
var (
	minShardSize = 512
	maxShards    = 16
)

// shardPlan partitions n driver positions into contiguous [lo,hi) ranges.
// The plan is a function of n alone — never of the worker count — so the
// shard boundaries, and with them every merge order, are reproducible for
// any Workers setting.
func shardPlan(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	shards := n / minShardSize
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	out := make([][2]int, 0, shards)
	for i := 0; i < shards; i++ {
		lo, hi := i*n/shards, (i+1)*n/shards
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// prewarmIndexes builds every hash index the rule's steps can consult, so
// that concurrent shard evaluation never mutates relation state (lazy index
// construction is the only write on the read path).
func (e *engine) prewarmIndexes(cr *cRule) {
	for i := range cr.steps {
		st := &cr.steps[i]
		if st.kind == stepJoin || st.kind == stepNeg {
			e.db.Relation(st.pred).warmIndex(st.staticMask)
		}
	}
}

// headBuf is one shard's emissions for one head of the rule under
// evaluation: the head rows, encoded, and their hashCells, in firing order.
// A firing pushes one entry to the buffer of every head, so entry k of each
// belongs to the shard's k-th firing.
type headBuf struct {
	vals   paged[cell]
	hashes paged[uint64]
}

// shardBuffers returns the emptied buffers of shards shards for the heads of
// the rule.
func (e *engine) shardBuffers(shards int, cr *cRule) [][]headBuf {
	for len(e.shardBufs) < shards {
		e.shardBufs = append(e.shardBufs, nil)
	}
	bufs := e.shardBufs[:shards]
	for s := range bufs {
		for len(bufs[s]) < len(cr.heads) {
			bufs[s] = append(bufs[s], headBuf{})
		}
		for hi := range cr.heads {
			bufs[s][hi].vals.reset(len(cr.heads[hi].args))
			bufs[s][hi].hashes.reset(1)
		}
	}
	return bufs
}

// evalRuleSharded evaluates a rule by sharding the driver step's window
// across the worker pool and merging the per-shard emissions at the barrier.
func (e *engine) evalRuleSharded(cr *cRule, w windows, driver int) (int, error) {
	st := &cr.steps[driver]
	rel := e.db.Relation(st.pred)
	lo, hi := w.rangeFor(driver, st.pred)
	if hi < 0 {
		hi = rel.Len()
	}
	if lo >= hi {
		return 0, nil
	}
	// Small driver windows are not worth the fan-out, buffering and merge:
	// evaluate them sequentially. The threshold compares against the window
	// size alone, so the chosen path — like the shard plan itself — never
	// depends on the worker count.
	if hi-lo < 2*minShardSize {
		return e.evalRule(cr, w)
	}
	plan := shardPlan(hi - lo)
	if e.trace == nil {
		e.prewarmIndexes(cr)
	} else {
		start := time.Now()
		e.prewarmIndexes(cr)
		e.trace.AddPrewarm(cr.idx, time.Since(start))
	}
	bufs := e.shardBuffers(len(plan), cr)
	// Per-shard observability counters, summed after the barrier. The shard
	// plan is worker-count independent, so the sums are too.
	firings := make([]int64, len(plan))
	probes := make([]int64, len(plan))
	var cancel atomicBool
	// MaxFacts valve: without it, a rule that overshoots the fact limit
	// would buffer its entire (possibly enormous) match set before the merge
	// barrier gets a chance to error. Buffered counts include duplicates the
	// sequential engine would never count, so overshooting the budget is not
	// by itself an error — it aborts the fan-out and falls back to exact
	// sequential evaluation below.
	budget := int64(-1)
	if e.opts.MaxFacts > 0 {
		budget = int64(e.opts.MaxFacts-e.derived) + 1
	}
	var pending atomic.Int64
	var overBudget atomicBool
	rels := e.stepRelations(cr)
	err := e.pool.runShards(e.ctx, len(plan), &cancel, func(s int) error {
		heads := bufs[s]
		var exScratch []value.Value
		c := newEvalCtx(e, cr, w, len(cr.steps), rels)
		c.shardStep, c.shardLo, c.shardHi = driver, lo+plan[s][0], lo+plan[s][1]
		c.cancelled = &cancel
		c.onMatch = func() error {
			var exVals []value.Value
			exVals, exScratch = skolemExVals(cr, c.slots, exScratch)
			for hi := range cr.heads {
				if budget >= 0 && pending.Add(1) > budget {
					overBudget.Store(true)
					return errEvalCancelled
				}
				b := &heads[hi]
				k := b.vals.push()
				row := b.vals.row(k)
				if err := resolveHead(cr, &cr.heads[hi], c.slots, exVals, row); err != nil {
					return err
				}
				*b.hashes.at(b.hashes.push()) = hashCells(row)
			}
			return nil
		}
		err := c.step(0)
		firings[s], probes[s] = c.firings, c.probes
		return err
	})
	for s := range plan {
		e.curFirings += firings[s]
		e.curProbes += probes[s]
	}
	if err != nil {
		return 0, err
	}
	if overBudget.Load() {
		// Pending emissions exceed the remaining budget. Inserts are
		// deduplicated, so discarding the buffers and re-deriving
		// sequentially is safe, and it counts new facts exactly: the re-run
		// either completes under the limit or reports the limit error with
		// the sequential engine's precise accounting.
		return e.evalRule(cr, w)
	}
	if e.trace == nil {
		return e.mergeShards(cr, bufs)
	}
	start := time.Now()
	n, err := e.mergeShards(cr, bufs)
	e.trace.AddMerge(cr.idx, time.Since(start))
	return n, err
}

// mergeShards inserts the shard buffers in shard index order, each shard's
// firings in its visit order and each firing's heads in head order. The
// shard plan is a function of the window size alone, so the insertion order
// — and with it the relation contents after every rule evaluation — is
// identical for every worker count, without any sorting at the barrier.
// insertHashed deduplicates against earlier buffers and the existing facts
// alike, reusing the shards' hashes; prepare gave every head relation its
// head's arity.
func (e *engine) mergeShards(cr *cRule, bufs [][]headBuf) (int, error) {
	rels := e.headRelations(cr)
	for _, rel := range rels {
		if rel.sealed != nil {
			return 0, ErrSealed
		}
	}
	inserted := 0
	for _, heads := range bufs {
		for k := int32(0); k < heads[0].hashes.n; k++ {
			for hi, rel := range rels {
				b := &heads[hi]
				if !rel.insertHashed(*b.hashes.at(k), b.vals.row(k)) {
					continue
				}
				inserted++
				e.derived++
				if e.opts.MaxFacts > 0 && e.derived > e.opts.MaxFacts {
					return inserted, errMaxFacts(e.opts.MaxFacts)
				}
			}
		}
	}
	return inserted, nil
}
