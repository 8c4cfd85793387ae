package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// reachProgram is the E16 closure: no aggregate, so the sharded engine, the
// hashed relations and DRed maintenance all run.
const reachProgram = `
	reach(X,Y) :- owns(X,Y,P).
	reach(X,Z) :- reach(X,Y), owns(Y,Z,P).
`

func runReasonControl(r *run) error {
	return runReason(r, finance.ControlVadalog(), "controls", true)
}

func runReasonReach(r *run) error {
	return runReason(r, reachProgram, "reach", false)
}

// factsHash is an order-independent digest of a relation: the wrapping sum
// of one FNV-1a hash per fact, so equal fact sets hash equal whatever order
// the engine derived them in, without sorting millions of tuples.
func factsHash(facts []vadalog.Fact) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var total uint64
	for _, f := range facts {
		h := uint64(offset)
		mix := func(x uint64) {
			for i := 0; i < 8; i++ {
				h = (h ^ (x & 0xff)) * prime
				x >>= 8
			}
		}
		for _, v := range f {
			mix(uint64(v.K))
			switch v.K {
			case value.Int:
				mix(uint64(v.I))
			case value.Float:
				mix(math.Float64bits(v.F))
			default:
				for _, c := range []byte(v.String()) {
					h = (h ^ uint64(c)) * prime
				}
			}
		}
		total += h
	}
	return total
}

func runReason(r *run, src, outPred string, control bool) error {
	prog, err := vadalog.Parse(src)
	if err != nil {
		return err
	}
	var (
		own       *finance.Ownership
		companies []vadalog.Fact
		owns      []vadalog.Fact
		maint     *vadalog.Maintainer
	)
	build := func() *vadalog.Database {
		db := vadalog.NewDatabase()
		if control {
			for _, f := range companies {
				db.MustAddFact("company", f...)
			}
		}
		for _, f := range owns {
			db.MustAddFact("owns", f...)
		}
		return db
	}
	_, err = r.setup(func() (func(), error) {
		gen := r.tr.start("fingraph.generate", "fingraph", 0, 0)
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(r.sz.Companies, r.sz.ShapeSeed))
		own = finance.BuildOwnership(topo)
		r.tr.end(gen)
		companies, owns = companies[:0], owns[:0]
		for _, e := range own.Entities {
			companies = append(companies, vadalog.Fact{value.IntV(int64(e))})
			for _, st := range own.Out[e] {
				owns = append(owns, vadalog.Fact{value.IntV(int64(e)), value.IntV(int64(st.Company)), value.FloatV(st.Pct)})
			}
		}
		// The maintainer's initial saturation doubles as the warm-up
		// fixpoint.
		var err error
		maint, err = vadalog.NewMaintainer(prog, build(), engineOpts())
		return func() {}, err
	})
	if err != nil {
		return err
	}
	if r.traced {
		r.sample("fingraph.generate_s", spanSecs(r.tr.named("fingraph.generate")), median)
	}
	wantCount := maint.DB().Count(outPred)
	wantHash := factsHash(maint.DB().Facts(outPred))

	var nativeMS []float64
	if control {
		// Oracle and floor: the native worklist twin. Vadalog derives one
		// self-pair per company as its recursion seed; the twin omits them.
		start := time.Now()
		native := finance.NativeControl(own, false)
		nativeMS = append(nativeMS, ms(time.Since(start)))
		got := make([]finance.ControlPair, 0, len(native))
		for _, f := range maint.DB().Facts(outPred) {
			if f[0].I != f[1].I {
				got = append(got, finance.ControlPair{Controller: int(f[0].I), Controlled: int(f[1].I)})
			}
		}
		sort.Slice(got, func(i, j int) bool {
			if got[i].Controller != got[j].Controller {
				return got[i].Controller < got[j].Controller
			}
			return got[i].Controlled < got[j].Controlled
		})
		same := len(got) == len(native)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == native[i]
		}
		r.check("controls-equals-native", same, "vadalog derives %d non-self pairs, NativeControl %d, or the sets differ", len(got), len(native))
	}

	// Phase 1: the full fixpoint on a fresh database, for half of the budget;
	// the churn pairs get the rest.
	var (
		opMS, plainMS []float64
		last          vadalog.RunStats
		region        = time.Now()
	)
	fixpoint := func(rep, workers int, traced bool) (time.Duration, error) {
		db := build()
		opts := vadalog.Options{Workers: workers}
		var tr *tracer
		if traced {
			tr = r.tr
		}
		// Every rep starts from a collected heap, so that the previous rep's
		// database is not this one's garbage to trace.
		runtime.GC()
		start := time.Now()
		id := tr.start("vadalog.RunInPlace", "vadalog", 0, rep)
		res, err := vadalog.RunInPlace(prog, db, opts)
		tr.end(id)
		wall := time.Since(start)
		r.op(err == nil)
		if err != nil {
			return 0, fmt.Errorf("fixpoint rep %d: %w", rep, err)
		}
		last = res.Stats
		facts := res.DB.Facts(outPred)
		r.check(fmt.Sprintf("fixpoint-stable-w%d", workers), len(facts) == wantCount && factsHash(facts) == wantHash,
			"rep %d workers %d: %d %s facts, want %d with the same digest", rep, workers, len(facts), outPred, wantCount)
		return wall, nil
	}
	for rep := 0; rep < 3 || time.Since(region) < r.budget()/2; rep++ {
		// In the traced pass every other rep runs without its span, which
		// prices the span bookkeeping itself.
		traced := r.traced && rep%2 == 0
		wall, err := fixpoint(rep, engineWorkers, traced)
		if err != nil {
			return err
		}
		if r.traced && !traced {
			plainMS = append(plainMS, ms(wall))
		} else {
			opMS = append(opMS, ms(wall))
		}
	}
	// Phase 2: churn pairs through the maintainer, for the rest.
	churn := newChurnGen(r.sz.ShapeSeed, r.seed, len(owns), r.sz.ChurnShare, r.sz.ChurnPool)
	var pairMS, overDeleted []float64
	var lastFacts []vadalog.Fact
	recomputed, batches := 0, 0
	for pair := 0; pair < 3 || time.Since(region) < r.budget(); pair++ {
		del := vadalog.NewDelta()
		for _, i := range churn.batch() {
			del.DelFact("owns", owns[i]...)
		}
		add := vadalog.Delta{Add: del.Del}
		start := time.Now()
		id := r.tr.start("vadalog.Maintainer.Apply(retract)", "vadalog", 0, pair)
		st1, err1 := maint.Apply(del)
		r.tr.end(id)
		id = r.tr.start("vadalog.Maintainer.Apply(assert)", "vadalog", 0, pair)
		st2, err2 := maint.Apply(add)
		r.tr.end(id)
		pairMS = append(pairMS, ms(time.Since(start)))
		r.op(err1 == nil && err2 == nil)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("churn pair %d: retract %v, assert %v", pair, err1, err2)
		}
		overDeleted = append(overDeleted, float64(st1.OverDeleted))
		for _, st := range []vadalog.DeltaStats{st1, st2} {
			batches++
			if st.Recomputed {
				recomputed++
			}
		}
		// The count is checked after every pair; the digest, which walks
		// every fact, after every eighth and after the last.
		lastFacts = maint.DB().Facts(outPred)
		same := len(lastFacts) == wantCount && (pair%8 != 0 || factsHash(lastFacts) == wantHash)
		r.check("maintained-equals-initial", same,
			"after pair %d: %d %s facts, want %d with the same digest", pair, len(lastFacts), outPred, wantCount)
	}
	r.check("maintained-equals-initial", factsHash(lastFacts) == wantHash, "after the last pair the %s digest differs", outPred)

	r.resources(len(owns), 0)
	runtime.KeepAlive(maint)

	// One sequential rep: the same facts at Workers=1 as at 2, and the price
	// of the sharded engine against itself.
	seqWall, err := fixpoint(-1, 1, false)
	if err != nil {
		return err
	}
	if !r.traced {
		r.sample("op_ms", opMS, quiet)
		// Pairs differ (one batch costs four times another) and recur: pair i
		// retracts batch i%ChurnPool of the seed's order.
		r.sample("aux_ms", pairMS, func(xs []float64) float64 { return quietPool(xs, r.sz.ChurnPool) })
		return nil
	}

	if control {
		for i := 0; i < 4; i++ {
			id := r.tr.start("finance.NativeControl", "finance", 0, i)
			finance.NativeControl(own, false)
			r.tr.end(id)
		}
		nativeMS = append(nativeMS, scale(spanSecs(r.tr.named("finance.NativeControl")), 1e3)...)
		r.sample("finance.native_control_ms", nativeMS, median)
		r.set("vadalog.engine_native_ratio", median(opMS)/median(nativeMS))
	}
	r.sample("vadalog.fixpoint_s", scale(opMS, 1e-3), median)
	r.set("vadalog.rounds", float64(last.Rounds))
	r.set("vadalog.derived", float64(last.FactsDerived))
	r.set("bench.work_per_s", float64(last.FactsDerived)/(median(opMS)/1000))
	r.set("vadalog.reach_speedup", ms(seqWall)/median(opMS))
	r.sample("vadalog.maintain_pair_ms", pairMS, median)
	r.set("vadalog.maintain_recomputed_ratio", float64(recomputed)/float64(batches))
	r.sample("vadalog.maintain_overdeleted", overDeleted, median)
	// The op is a single layer call, so the span is the whole of it.
	r.set("bench.attributed_pct", 100)
	r.overhead(opMS, plainMS)
	return nil
}
