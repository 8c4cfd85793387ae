package vadalog

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/value"
)

// ---------------------------------------------------------------------------
// Differential property test: parallel evaluation derives exactly the facts
// sequential evaluation derives, on randomly generated programs exercising
// joins, recursion, filters, negation, stratified aggregation, monotonic
// aggregation and existentials.
// ---------------------------------------------------------------------------

// generateProgram emits a random stratifiable program. Predicates are layered
// (every rule only reads predicates defined earlier, except positive
// self-recursion), so negation and aggregation never cross a cycle.
//
// Aggregates draw their input only from integer-valued predicates
// (aggSafe): integer sums merge exactly under any association, so the
// parallel shard merge is bit-identical to the sequential fold. Monotonic
// aggregation uses mcount, whose *set* of running emissions is independent
// of contribution order — the property that makes a cross-mode comparison
// meaningful (running msum values over distinct weights depend on insertion
// order even between two sequential runs).
func generateProgram(rng *rand.Rand) string {
	var b strings.Builder
	bins := []string{"e"}    // arity-2 predicates usable as join inputs
	uns := []string{"n"}     // arity-1 predicates
	aggSafe := []string{"e"} // arity-2, integer second column, no nulls
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	idx := 0
	fresh := func(prefix string) string { idx++; return fmt.Sprintf("%s%d", prefix, idx) }

	nRules := 3 + rng.Intn(5)
	for i := 0; i < nRules; i++ {
		switch rng.Intn(9) {
		case 0: // join of two earlier binaries
			p := fresh("j")
			fmt.Fprintf(&b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", p, pick(bins), pick(bins))
			bins = append(bins, p)
		case 1: // recursive closure over an earlier binary
			p := fresh("t")
			base := pick(aggSafe)
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y).\n", p, base)
			fmt.Fprintf(&b, "%s(X,Z) :- %s(X,Y), %s(Y,Z).\n", p, p, base)
			bins = append(bins, p)
			aggSafe = append(aggSafe, p)
		case 2: // comparison filter (integer inputs only: kinds stay comparable)
			p := fresh("f")
			src := pick(aggSafe)
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y), X < Y.\n", p, src)
			bins = append(bins, p)
			aggSafe = append(aggSafe, p)
		case 3: // binary negation against an earlier (lower-stratum) binary
			p := fresh("g")
			fmt.Fprintf(&b, "%s(X,Y) :- %s(X,Y), not %s(Y,X).\n", p, pick(bins), pick(bins))
			bins = append(bins, p)
		case 4: // stratified aggregate over an integer-valued binary
			p := fresh("s")
			op := []string{"sum", "min", "max"}[rng.Intn(3)]
			fmt.Fprintf(&b, "%s(X,V) :- %s(X,Y), V = %s(Y).\n", p, pick(aggSafe), op)
			bins = append(bins, p)
			aggSafe = append(aggSafe, p)
		case 5: // monotonic aggregate (running count per group)
			p := fresh("m")
			fmt.Fprintf(&b, "%s(X,V) :- %s(X,Y), V = mcount(<Y>).\n", p, pick(aggSafe))
			bins = append(bins, p)
			aggSafe = append(aggSafe, p)
		case 6: // existential head variable (frontier-keyed Skolem)
			p := fresh("x")
			fmt.Fprintf(&b, "%s(X,Z) :- %s(X,Y).\n", p, pick(bins))
			bins = append(bins, p) // joinable, but never aggregate input
		case 7: // unary projection guarded by negation
			p := fresh("u")
			fmt.Fprintf(&b, "%s(X) :- %s(X), not %s(X,X).\n", p, pick(uns), pick(bins))
			uns = append(uns, p)
		case 8: // an input relation as head: the run grows e itself
			b.WriteString("e(X,Z) :- e(X,Y), e(Y,Z), X < Z.\n")
		}
	}
	return b.String()
}

// shrinkShards lowers the sharding threshold so that the small inputs used
// by tests actually exercise the parallel path (production inputs below
// 2*minShardSize fall back to sequential evaluation by design).
func shrinkShards(t *testing.T) {
	t.Helper()
	old := minShardSize
	minShardSize = 2
	t.Cleanup(func() { minShardSize = old })
}

func randomInputDB(rng *rand.Rand) *Database {
	db := NewDatabase()
	nodes := 6 + rng.Intn(6)
	for i := 0; i < nodes; i++ {
		db.MustAddFact("n", value.IntV(int64(i)))
	}
	edges := 10 + rng.Intn(30)
	for i := 0; i < edges; i++ {
		db.MustAddFact("e",
			value.IntV(int64(rng.Intn(nodes))), value.IntV(int64(rng.Intn(nodes))))
	}
	return db
}

// TestParallelDifferential generates programs and databases and asserts that
// sequential (Workers: 1) and parallel (Workers: 8) runs produce identical
// SortedFacts for every predicate, on at least 100 generated programs.
// Parallel runs at different worker counts must additionally agree on the
// exact relation contents *including insertion order* (the bit-identical
// guarantee of parallel.go). The same input sealed (what the fact extractors
// hand the engine) must give the same database as the mutable one at both
// worker counts, insertion order included, also when the program derives
// into an input relation.
func TestParallelDifferential(t *testing.T) {
	shrinkShards(t)
	const total = 120
	const needed = 100
	rng := rand.New(rand.NewSource(7))
	compared := 0
	for i := 0; i < total; i++ {
		src := generateProgram(rng)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("program %d does not parse: %v\n%s", i, err, src)
		}
		db := randomInputDB(rng)
		opts := Options{MaxFacts: 200_000}

		seqOpts := opts
		seqOpts.Workers = 1
		seq, errSeq := Run(prog, db, seqOpts)

		par8Opts := opts
		par8Opts.Workers = 8
		par8Opts.Trace = obs.NewTrace()
		par8, errPar8 := Run(prog, db, par8Opts)

		par3Opts := opts
		par3Opts.Workers = 3
		par3Opts.Trace = obs.NewTrace()
		par3, errPar3 := Run(prog, db, par3Opts)

		sealed := db.Clone()
		seal(sealed)
		sealedSeq, errSealedSeq := Run(prog, sealed, seqOpts)
		sealedPar8Opts := opts
		sealedPar8Opts.Workers = 8
		sealedPar8, errSealedPar8 := Run(prog, sealed, sealedPar8Opts)

		if errSeq != nil || errPar8 != nil || errPar3 != nil || errSealedSeq != nil || errSealedPar8 != nil {
			// A generated program can err at runtime (e.g. an aggregate fed
			// by a Skolem null through a join chain). All modes must agree
			// that it errs; the comparison is then vacuous.
			if errSeq == nil || errPar8 == nil || errPar3 == nil || errSealedSeq == nil || errSealedPar8 == nil {
				t.Fatalf("program %d: inconsistent errors: seq=%v par8=%v par3=%v sealed seq=%v sealed par8=%v\n%s",
					i, errSeq, errPar8, errPar3, errSealedSeq, errSealedPar8, src)
			}
			continue
		}
		if seq.DB.Dump() != par8.DB.Dump() {
			t.Fatalf("program %d: workers=1 and workers=8 disagree\nprogram:\n%s\nseq:\n%s\npar:\n%s",
				i, src, seq.DB.Dump(), par8.DB.Dump())
		}
		// Bit-identical across parallel worker counts, and between the
		// mutable and the sealed input at one worker count: same facts in
		// the same insertion order for every relation.
		for _, pair := range []struct {
			a, b   *Database
			an, bn string
		}{
			{par8.DB, par3.DB, "workers=8", "workers=3"},
			{par8.DB, sealedPar8.DB, "workers=8", "sealed workers=8"},
			{seq.DB, sealedSeq.DB, "workers=1", "sealed workers=1"},
		} {
			if err := sameInsertionOrder(pair.a, pair.b); err != nil {
				t.Fatalf("program %d: %s vs %s: %v\n%s", i, pair.an, pair.bn, err, src)
			}
		}
		// The run traces — firings, probes, derived counts, round deltas —
		// must also be identical across parallel worker counts: the shard
		// plan depends only on window sizes, never on the worker count.
		var t8, t3 bytes.Buffer
		if err := par8Opts.Trace.WriteJSON(&t8); err != nil {
			t.Fatal(err)
		}
		if err := par3Opts.Trace.WriteJSON(&t3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(t8.Bytes(), t3.Bytes()) {
			t.Fatalf("program %d: run traces diverge between workers=8 and workers=3\nprogram:\n%s\nworkers=8:\n%s\nworkers=3:\n%s",
				i, src, t8.String(), t3.String())
		}
		compared++
	}
	if compared < needed {
		t.Fatalf("only %d/%d generated programs were comparable (need >= %d)", compared, total, needed)
	}
	t.Logf("compared %d/%d generated programs", compared, total)
}

// sameInsertionOrder reports the first relation or position at which two
// databases differ, comparing facts position by position.
func sameInsertionOrder(a, b *Database) error {
	if ap, bp := a.Predicates(), b.Predicates(); strings.Join(ap, ",") != strings.Join(bp, ",") {
		return fmt.Errorf("predicates %v vs %v", ap, bp)
	}
	for _, pred := range a.Predicates() {
		fa, fb := a.Facts(pred), b.Facts(pred)
		if len(fa) != len(fb) {
			return fmt.Errorf("%s has %d facts vs %d", pred, len(fa), len(fb))
		}
		for k := range fa {
			if !tupleEqual(fa[k], fb[k]) {
				return fmt.Errorf("%s insertion order diverges at position %d: %s vs %s", pred, k, fa[k], fb[k])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shard/merge layer unit tests
// ---------------------------------------------------------------------------

func TestShardPlan(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 127, 128, 1000, 4096, 100000} {
		plan := shardPlan(n)
		if n <= 0 {
			if plan != nil {
				t.Fatalf("shardPlan(%d) = %v, want nil", n, plan)
			}
			continue
		}
		if len(plan) > maxShards {
			t.Fatalf("shardPlan(%d) has %d shards, cap is %d", n, len(plan), maxShards)
		}
		prev := 0
		for _, r := range plan {
			if r[0] != prev || r[1] <= r[0] {
				t.Fatalf("shardPlan(%d) not contiguous/nonempty: %v", n, plan)
			}
			prev = r[1]
		}
		if prev != n {
			t.Fatalf("shardPlan(%d) covers [0,%d)", n, prev)
		}
	}
}

var tcProgram = MustParse(`
	tc(X,Y) :- edge(X,Y).
	tc(X,Z) :- tc(X,Y), edge(Y,Z).
`)

func runBoth(t *testing.T, prog *Program, db *Database, workers int) (*Result, *Result) {
	t.Helper()
	seq, err := Run(prog, db, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(prog, db, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return seq, par
}

func TestParallelEmptyDelta(t *testing.T) {
	// No edge facts at all: round 0 derives nothing, the parallel path must
	// handle the empty driver window without fanning out.
	db := NewDatabase()
	seq, par := runBoth(t, tcProgram, db, 8)
	if seq.DB.Dump() != par.DB.Dump() || par.Stats.FactsDerived != 0 {
		t.Fatalf("empty database: seq=%q par=%q derived=%d", seq.DB.Dump(), par.DB.Dump(), par.Stats.FactsDerived)
	}
}

func TestParallelFewerFactsThanWorkers(t *testing.T) {
	shrinkShards(t)
	for _, facts := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("facts=%d", facts), func(t *testing.T) {
			db := NewDatabase()
			for i := 0; i < facts; i++ {
				db.MustAddFact("edge", value.IntV(int64(i)), value.IntV(int64(i+1)))
			}
			seq, par := runBoth(t, tcProgram, db, 8)
			if seq.DB.Dump() != par.DB.Dump() {
				t.Fatalf("disagreement at %d facts:\nseq: %s\npar: %s", facts, seq.DB.Dump(), par.DB.Dump())
			}
		})
	}
}

func TestParallelWorkersExceedGOMAXPROCS(t *testing.T) {
	shrinkShards(t)
	workers := 4 * runtime.GOMAXPROCS(0)
	db := randomEdgeDB(11, 40, 160)
	seq, par := runBoth(t, tcProgram, db, workers)
	if seq.DB.Dump() != par.DB.Dump() {
		t.Fatalf("workers=%d disagrees with sequential", workers)
	}
	if seq.Stats.FactsDerived != par.Stats.FactsDerived {
		t.Fatalf("derived %d sequential vs %d parallel", seq.Stats.FactsDerived, par.Stats.FactsDerived)
	}
}

// TestParallelErrorPropagation: a rule that fails inside worker goroutines
// must surface the error without deadlocking, with every shard either run or
// cancelled.
func TestParallelErrorPropagation(t *testing.T) {
	prog := MustParse(`out(X,Y) :- in(X), Y = to_int(X).`)
	db := NewDatabase()
	for i := 0; i < 2000; i++ {
		db.MustAddFact("in", value.Str(fmt.Sprintf("bad%d", i)))
	}
	if _, err := Run(prog, db, Options{Workers: 8}); err == nil {
		t.Fatal("expected a conversion error from the parallel run")
	}
	// The same engine (same pool) must stay usable for a subsequent run.
	db2 := randomEdgeDB(3, 10, 20)
	if _, err := Run(tcProgram, db2, Options{Workers: 8}); err != nil {
		t.Fatalf("run after failed run: %v", err)
	}
}

func TestParallelMaxFactsValve(t *testing.T) {
	prog := MustParse(`
		pair(X,Y) :- item(X), item(Y).
	`)
	db := NewDatabase()
	for i := 0; i < 1000; i++ {
		db.MustAddFact("item", value.IntV(int64(i)))
	}
	if _, err := Run(prog, db, Options{Workers: 8, MaxFacts: 5000}); err == nil {
		t.Fatal("parallel run must enforce MaxFacts at the merge barrier")
	}
}

func TestWorkerPoolFirstError(t *testing.T) {
	p := newWorkerPool(4)
	defer p.close()
	var cancel atomicBool
	ran := make([]bool, 100)
	err := p.runShards(nil, 100, &cancel, func(s int) error {
		ran[s] = true
		if s == 7 {
			return fmt.Errorf("boom at shard %d", s)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if !ran[7] {
		t.Fatal("failing shard did not run")
	}
	// A second batch on the same pool must work (no poisoned workers).
	var cancel2 atomicBool
	if err := p.runShards(nil, 50, &cancel2, func(int) error { return nil }); err != nil {
		t.Fatalf("second batch: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Parallel stratified aggregation, negation, existentials, incremental
// ---------------------------------------------------------------------------

// TestParallelStratifiedAggregates pins W=8 ≡ W=1 for a program of
// stratified aggregates. Aggregates never shard — a program with one starts
// no worker pool (hasAggregate) — so both runs evaluate sequentially and the
// test guards that carve-out rather than a sharded collect.
func TestParallelStratifiedAggregates(t *testing.T) {
	prog := MustParse(`
		total(G,V) :- obs(G,X), V = sum(X).
		lo(G,V)    :- obs(G,X), V = min(X).
		hi(G,V)    :- obs(G,X), V = max(X).
		cnt(G,V)   :- obs(G,X), V = count().
		mean(G,V)  :- obs(G,X), V = avg(X).
		packed(G,P) :- attr(G,N,X), P = pack(N,X).
	`)
	rng := rand.New(rand.NewSource(5))
	db := NewDatabase()
	for i := 0; i < 700; i++ {
		g := fmt.Sprintf("g%d", rng.Intn(9))
		db.MustAddFact("obs", value.Str(g), value.IntV(int64(rng.Intn(50))))
	}
	for i := 0; i < 300; i++ {
		g := fmt.Sprintf("g%d", rng.Intn(9))
		db.MustAddFact("attr", value.Str(g), value.Str(fmt.Sprintf("k%d", i)), value.IntV(int64(i)))
	}
	seq, par := runBoth(t, prog, db, 8)
	if seq.DB.Dump() != par.DB.Dump() {
		t.Fatalf("stratified aggregates disagree:\nseq: %s\npar: %s", seq.DB.Dump(), par.DB.Dump())
	}
}

func TestParallelNegationAndExistentials(t *testing.T) {
	shrinkShards(t)
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
		sink(X,B) :- node(X), not tc(X,X).
		holder(B,X) :- sink(X,B).
	`)
	db := randomEdgeDB(21, 30, 60)
	for i := 0; i < 30; i++ {
		db.MustAddFact("node", value.IntV(int64(i)))
	}
	seq, par := runBoth(t, prog, db, 8)
	if seq.DB.Dump() != par.DB.Dump() {
		t.Fatal("negation + existential program disagrees between modes")
	}
	if len(par.Output("holder")) == 0 {
		t.Fatal("expected Skolem holders to be derived")
	}
}

// TestParallelMonotonicAggregate: rules with monotonic aggregates fall back
// to sequential evaluation inside a parallel run, so the derived set matches
// the sequential engine exactly even for order-sensitive running sums —
// the surrounding non-aggregate rules still run sharded.
func TestParallelMonotonicAggregate(t *testing.T) {
	prog := MustParse(`
		link(X,Y,W) :- owns(X,Y,W).
		reach(X,V) :- link(X,Y,W), V = msum(W, <Y>).
	`)
	rng := rand.New(rand.NewSource(13))
	db := NewDatabase()
	for i := 0; i < 400; i++ {
		db.MustAddFact("owns",
			value.IntV(int64(rng.Intn(20))), value.IntV(int64(rng.Intn(20))),
			value.IntV(int64(1+rng.Intn(5))))
	}
	seq, par := runBoth(t, prog, db, 8)
	if seq.DB.Dump() != par.DB.Dump() {
		t.Fatalf("monotonic aggregate disagrees:\nseq: %s\npar: %s", seq.DB.Dump(), par.DB.Dump())
	}
}

// TestParallelProvenanceFallsBack: provenance needs a global insertion order,
// so Workers is ignored — and Explain still works.
func TestParallelProvenanceFallsBack(t *testing.T) {
	db := randomEdgeDB(9, 12, 25)
	res, err := Run(tcProgram, db, Options{Workers: 8, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output("tc")
	if len(out) == 0 {
		t.Fatal("no tc facts")
	}
	if _, err := res.Explain("tc", out[0], 10); err != nil {
		t.Fatalf("Explain under Workers>1: %v", err)
	}
}

// TestParallelIncremental: resumed batches agree between worker counts.
func TestParallelIncremental(t *testing.T) {
	shrinkShards(t)
	prog := MustParse(tcNullSrc)
	mk := func(workers int) *Database {
		m, err := NewMaintainer(prog, randomEdgeDB(31, 25, 50), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			d := NewDelta()
			d.AddFact("edge", value.IntV(int64(i)), value.IntV(int64((i*7)%25)))
			applyResumed(t, m, d)
		}
		maintainerVsFresh(t, m, prog)
		return m.DB()
	}
	if seq, par := mk(1), mk(8); seq.Dump() != par.Dump() {
		t.Fatal("resumed batches disagree between worker counts")
	}
}

// layeredEdgeDB is a layered random DAG: layers of width nodes, each with
// degree edges into random nodes of the next layer. Its closure is bounded
// by the depth, and every round's delta window is wide.
func layeredEdgeDB(seed int64, layers, width, degree int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase()
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for d := 0; d < degree; d++ {
				db.MustAddFact("edge", value.IntV(int64(l*width+i)), value.IntV(int64((l+1)*width+rng.Intn(width))))
			}
		}
	}
	return db
}

// TestShardedMergeAtProductionShardSizes runs the shard buffers and the
// merge at the default minShardSize and maxShards: a closure whose windows
// exceed 2*minShardSize and whose shards fill more than one buffer page, a
// two-head rule with both heads on one predicate (their interleaving is
// insertion order), and a Skolem head. Workers 2 and 8 agree on insertion
// order and trace, Workers 1 on the facts; the MaxFacts limit errors at
// every worker count as it does sequentially.
func TestShardedMergeAtProductionShardSizes(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
		sym(X,Y), sym(Y,X) :- edge(X,Y).
		holds(X,S), share(S,Y) :- edge(X,Y).
	`)
	db := layeredEdgeDB(5, 5, 300, 3)

	// The buffers outlive each evaluation until the pool stops: look at
	// them before it does.
	e, err := newEngine(context.Background(), prog, db.Clone(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.startPool()
	err = e.run()
	pages := 0
	for _, heads := range e.shardBufs {
		for _, b := range heads {
			pages = max(pages, len(b.vals.pages))
		}
	}
	e.stopPool()
	e.release()
	if err != nil {
		t.Fatal(err)
	}
	if pages < 2 {
		t.Fatalf("no shard buffered more than one %d-entry page (max %d pages)", pageLen, pages)
	}

	run := func(workers, maxFacts int) (*Result, string, error) {
		tr := obs.NewTrace()
		res, err := Run(prog, db, Options{Workers: workers, MaxFacts: maxFacts, Trace: tr})
		var b bytes.Buffer
		if werr := tr.WriteJSON(&b); werr != nil {
			t.Fatal(werr)
		}
		return res, b.String(), err
	}
	seq, _, err := run(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	par2, trace2, err := run(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	par8, trace8, err := run(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameInsertionOrder(par2.DB, par8.DB); err != nil {
		t.Fatalf("workers=2 vs workers=8: %v", err)
	}
	if trace2 != trace8 {
		t.Fatalf("run traces diverge between workers=2 and workers=8:\n%s\nvs\n%s", trace2, trace8)
	}
	if seq.DB.Dump() != par2.DB.Dump() {
		t.Fatal("workers=1 and workers=2 derive different facts")
	}
	if len(par2.Output("share")) == 0 || len(par2.Output("sym")) == 0 {
		t.Fatal("the Skolem and two-head rules derived nothing")
	}

	// Limits that trip in round 0, in a middle round, and one fact short of
	// the fixpoint.
	total := seq.Stats.FactsDerived
	t.Logf("%d facts, %d rounds", total, seq.Stats.Rounds)
	for _, limit := range []int{3000, total / 2, total - 1} {
		seqRes, _, seqErr := run(1, limit)
		if seqErr == nil {
			t.Fatalf("MaxFacts %d: the sequential run did not error", limit)
		}
		for _, workers := range []int{2, 8} {
			res, _, err := run(workers, limit)
			if err == nil || err.Error() != seqErr.Error() || res.Stats.FactsDerived != seqRes.Stats.FactsDerived {
				t.Fatalf("MaxFacts %d, workers=%d: %v after %d facts; workers=1: %v after %d",
					limit, workers, err, res.Stats.FactsDerived, seqErr, seqRes.Stats.FactsDerived)
			}
		}
	}
}

// TestShardedMergeNanos: a sharded rule reports its merge barrier's wall
// time as merge_ns and its index prewarm's as prewarm_ns, which
// WriteJSONTimings shows and WriteJSON strips.
func TestShardedMergeNanos(t *testing.T) {
	tr := obs.NewTrace()
	if _, err := Run(tcProgram, layeredEdgeDB(3, 4, 400, 3), Options{Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	rule := tr.Runs()[0].Rules[1]
	if rule.MergeNanos <= 0 || rule.MergeNanos > rule.WallNanos {
		t.Fatalf("recursive rule: merge_ns %d, wall_ns %d; want 0 < merge <= wall", rule.MergeNanos, rule.WallNanos)
	}
	if rule.PrewarmNanos <= 0 || rule.MergeNanos+rule.PrewarmNanos > rule.WallNanos {
		t.Fatalf("recursive rule: prewarm_ns %d, merge_ns %d, wall_ns %d; want 0 < prewarm, merge + prewarm <= wall", rule.PrewarmNanos, rule.MergeNanos, rule.WallNanos)
	}
	var plain, timed bytes.Buffer
	if err := tr.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONTimings(&timed); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"merge_ns", "prewarm_ns"} {
		if strings.Contains(plain.String(), field) || !strings.Contains(timed.String(), field) {
			t.Fatalf("%s must show in WriteJSONTimings only", field)
		}
	}
}
