package vadalog

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/value"
)

// countdownCtx is a context that reports cancellation after a fixed number
// of Err polls. The engine only consults Err at its cooperative boundaries
// (strata, rounds, rule evaluations, shard claims), so a countdown pins the
// interruption to an exact boundary — cancellation tests become fully
// deterministic instead of racing a timer against the fixpoint.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// deepChainDB builds a long ownership chain whose transitive closure needs
// one fixpoint round per link — plenty of round boundaries to cancel at.
func deepChainDB(links int) *Database {
	db := NewDatabase()
	for i := 0; i < links; i++ {
		db.MustAddFact("edge", value.IntV(int64(i)), value.IntV(int64(i+1)))
	}
	return db
}

// checkPartialResult asserts the internal consistency of an interrupted
// run's partial result: the statistics must agree with the database the
// engine hands back, and the duration must be populated (the pre-fix engine
// only set it on success).
func checkPartialResult(t *testing.T, res *Result, inputFacts int) {
	t.Helper()
	if res == nil {
		t.Fatal("interrupted run returned a nil result")
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("partial Duration = %v, want > 0", res.Stats.Duration)
	}
	if res.Stats.FactsDerived < 0 || res.Stats.Rounds < 0 {
		t.Errorf("negative partial stats: %+v", res.Stats)
	}
	if got := res.DB.TotalFacts() - inputFacts; got != res.Stats.FactsDerived {
		t.Errorf("FactsDerived = %d but the database grew by %d facts", res.Stats.FactsDerived, got)
	}
}

// TestCancelBeforeRun: an already-canceled context stops the run at the
// first boundary with the typed error and an empty partial result.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		db := deepChainDB(50)
		input := db.TotalFacts()
		res, err := RunCtx(ctx, tcProgram, db, Options{Workers: workers})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		checkPartialResult(t, res, input)
		if res.Stats.FactsDerived != 0 {
			t.Errorf("workers=%d: pre-canceled run derived %d facts", workers, res.Stats.FactsDerived)
		}
	}
}

// TestCancelMidFixpoint cancels at an exact cooperative boundary in the
// middle of a deep recursive fixpoint, under both the sequential and the
// sharded engine, and checks the typed error, the partial statistics, and
// that the worker pool leaves no goroutines behind.
func TestCancelMidFixpoint(t *testing.T) {
	shrinkShards(t)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkLeak := testutil.CheckGoroutineLeak(t)
			db := deepChainDB(200)
			input := db.TotalFacts()
			// Enough polls to get well into the fixpoint, few enough to stop
			// long before its ~200 rounds complete.
			ctx := newCountdownCtx(50)
			res, err := RunCtx(ctx, tcProgram, db, Options{Workers: workers})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			checkPartialResult(t, res, input)
			if res.Stats.FactsDerived == 0 {
				t.Error("cancellation at poll 50 should land mid-run, after some derivation")
			}
			// The full closure of a 200-link chain has 200*201/2 pairs; a
			// mid-run cancel must not have finished it.
			if full := 200 * 201 / 2; res.Stats.FactsDerived >= full {
				t.Errorf("derived %d facts, full closure is %d — cancellation came too late", res.Stats.FactsDerived, full)
			}
			checkLeak()
		})
	}
}

// TestCancelShardBoundary cancels while a wide single evaluation is fanned
// out across shards: the countdown is sized to expire during the shard
// claims of the first big rule evaluation, exercising the runShards poll.
func TestCancelShardBoundary(t *testing.T) {
	shrinkShards(t)
	prog := MustParse(`pair(X,Y) :- item(X), item(Y).`)
	db := NewDatabase()
	for i := 0; i < 2000; i++ {
		db.MustAddFact("item", value.IntV(int64(i)))
	}
	input := db.TotalFacts()
	checkLeak := testutil.CheckGoroutineLeak(t)
	// Polls: stratum + round-0 eval checks pass, then the shard claims of
	// the 16-shard fan-out run the counter below zero mid-evaluation.
	ctx := newCountdownCtx(10)
	res, err := RunCtx(ctx, prog, db, Options{Workers: 8})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	checkPartialResult(t, res, input)
	checkLeak()
}

// TestTimeoutTyped: Options.Timeout interrupts a fixpoint that would run for
// a very long time, with ErrTimeout and consistent partial stats, for both
// engines.
func TestTimeoutTyped(t *testing.T) {
	prog := MustParse(`
		nat(Y) :- nat(X), Y = X + 1, Y < 100000000.
	`)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkLeak := testutil.CheckGoroutineLeak(t)
			db := NewDatabase()
			db.MustAddFact("nat", value.IntV(0))
			start := time.Now()
			res, err := Run(prog, db, Options{Workers: workers, Timeout: 50 * time.Millisecond})
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("timeout of 50ms took %v to take effect", elapsed)
			}
			checkPartialResult(t, res, 1)
			if res.Stats.FactsDerived == 0 || res.Stats.Rounds == 0 {
				t.Errorf("timed-out run has empty stats: %+v", res.Stats)
			}
			checkLeak()
		})
	}
}

// TestCallerDeadlineMapsToTimeout: a deadline already on the caller's
// context — without Options.Timeout — surfaces as ErrTimeout too.
func TestCallerDeadlineMapsToTimeout(t *testing.T) {
	prog := MustParse(`
		nat(Y) :- nat(X), Y = X + 1, Y < 100000000.
	`)
	db := NewDatabase()
	db.MustAddFact("nat", value.IntV(0))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := RunCtx(ctx, prog, db, Options{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestCancelDeterministicStats: the same countdown cancellation point yields
// byte-for-byte identical partial statistics across repetitions and across
// worker counts — interruption is at a deterministic boundary, not a race.
func TestCancelDeterministicStats(t *testing.T) {
	shrinkShards(t)
	run := func(workers int) RunStats {
		db := deepChainDB(150)
		res, err := RunCtx(newCountdownCtx(40), tcProgram, db, Options{Workers: workers})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		res.Stats.Duration = 0 // wall time is the one nondeterministic field
		return res.Stats
	}
	base1, base8 := run(1), run(8)
	for i := 0; i < 3; i++ {
		if got := run(1); got != base1 {
			t.Fatalf("workers=1 stats vary across repetitions: %+v vs %+v", got, base1)
		}
		if got := run(8); got != base8 {
			t.Fatalf("workers=8 stats vary across repetitions: %+v vs %+v", got, base8)
		}
	}
}

// TestCancelMaintainerResume: a canceled insertion batch of a resumable
// program comes back as ErrCanceled and rolls back; the same batch then
// resumes. Each resumed batch is one run in the process counters, by its
// status, with its own derived facts, not the kept engine's running totals.
func TestCancelMaintainerResume(t *testing.T) {
	prog := MustParse(tcNullSrc)
	m, err := NewMaintainer(prog, deepChainDB(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.DB().Dump()
	d := NewDelta()
	d.AddFact("edge", value.IntV(50), value.IntV(51))
	c0 := obs.Counters()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ApplyCtx(ctx, d); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := m.DB().Dump(); got != before {
		t.Fatal("canceled batch left the database changed")
	}
	c1 := obs.Counters()
	if c := c1.Canceled - c0.Canceled; c != 1 {
		t.Errorf("counted %d canceled runs, want 1", c)
	}
	stats := applyResumed(t, m, d)
	c2 := obs.Counters()
	if runs := c2.Runs - c1.Runs; runs != 1 {
		t.Errorf("the resumed batch counted %d runs, want 1", runs)
	}
	// Added also counts the asserted edge, which the engine did not derive.
	if got, want := c2.Derived-c1.Derived, int64(stats.Added-1); got != want || want == 0 {
		t.Errorf("counted %d derived facts, the batch derived %d", got, want)
	}
	maintainerVsFresh(t, m, prog)
}

// TestStatsOnError: non-cancellation errors (the MaxFacts valve) also come
// back with a populated partial result — Duration included, which the
// previous engine only set on success.
func TestStatsOnError(t *testing.T) {
	prog := MustParse(`
		nat(Y) :- nat(X), Y = X + 1.
	`)
	db := NewDatabase()
	db.MustAddFact("nat", value.IntV(0))
	res, err := Run(prog, db, Options{MaxFacts: 100})
	if err == nil {
		t.Fatal("unbounded derivation must hit the fact limit")
	}
	if errors.Is(err, ErrCanceled) || errors.Is(err, ErrTimeout) {
		t.Fatalf("MaxFacts error got mistyped as interruption: %v", err)
	}
	if res == nil {
		t.Fatal("error return lost the partial result")
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("Duration = %v on the error path, want > 0", res.Stats.Duration)
	}
	if res.Stats.FactsDerived == 0 {
		t.Errorf("FactsDerived = 0 on a run that exceeded a limit of 100")
	}
}
