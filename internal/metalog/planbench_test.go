package metalog

import (
	"context"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/fingraph"
	"repro/internal/vadalog"
)

// The E24 planning benchmarks (EXPERIMENTS.md): a point query — one company's
// ownership closure — over the E1 shareholding graph, evaluated unplanned
// (written order, full closure materialized) versus through the cost-based
// plan (join reordering + demand transformation, only the demanded subset of
// the closure computed). make bench-plan captures them into BENCH_plan.json
// and runs the speedup gate below.
//
// Both sides run the same Prepared.QueryDB path — the unplanned side is
// prepared with a nil statistics catalog — against the one extracted
// database. It is sealed, so the engine's per-run clone costs nothing and
// the hash indexes persist from run to run: the comparison is evaluation
// work on warm indexes, which is what a serving generation pays.

// planBenchQuery probes one company's transitive ownership: the shape the
// demand transformation exists for.
const planBenchQuery = `(x: Business; fiscalCode: "CO00000042") ([: OWNS])+ (y: Business)`

// planBench is the shared fixture: the E1 shareholding graph extracted once,
// with the query prepared both ways.
type planBench struct {
	db        *vadalog.Database
	planned   *Prepared
	unplanned *Prepared
}

func planBenchSetup(tb testing.TB, companies int) planBench {
	tb.Helper()
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(companies, 42))
	f := topo.Shareholding().Freeze()
	cat := FromGraph(f)
	st := ComputePlanStats(f, cat)
	planned, err := PrepareQuery(cat.Clone(), planBenchQuery, st)
	if err != nil {
		tb.Fatal(err)
	}
	if !planned.Planned() {
		tb.Fatal("point query did not plan; the comparison would run identical programs")
	}
	unplanned, err := PrepareQuery(cat.Clone(), planBenchQuery, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if unplanned.Planned() {
		tb.Fatal("nil-stats prepare unexpectedly planned")
	}
	db, err := ExtractFacts(f, cat)
	if err != nil {
		tb.Fatal(err)
	}
	return planBench{db: db, planned: planned, unplanned: unplanned}
}

// run evaluates one prepared side, returning the row count.
func (pb planBench) run(tb testing.TB, prep *Prepared) int {
	tb.Helper()
	rows, err := prep.QueryDB(context.Background(), pb.db, vadalog.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if len(rows) == 0 {
		tb.Fatal("empty result")
	}
	return len(rows)
}

func BenchmarkPlanPointQuery(b *testing.B) {
	pb := planBenchSetup(b, 2000)
	for _, tc := range []struct {
		name string
		prep *Prepared
	}{
		{"unplanned", pb.unplanned},
		{"planned", pb.planned},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pb.run(b, tc.prep)
			}
		})
	}
}

// TestPlanPointQueryGate is the E24 acceptance gate: the planned point query
// must evaluate at least 5x faster than the unplanned one on the E1 graph —
// demand-driven evaluation walks one company's reachable cone instead of
// materializing the whole ownership closure. Median of per-round medians
// with retries, like the E23 WAL gate, so one noisy round on shared hardware
// proves nothing. Run by make bench-plan (RUN_PLAN_GATE=1); skipped
// otherwise.
func TestPlanPointQueryGate(t *testing.T) {
	if os.Getenv("RUN_PLAN_GATE") == "" {
		t.Skip("speedup gate runs under make bench-plan (set RUN_PLAN_GATE=1)")
	}
	const (
		companies = 8000
		rounds    = 5
		perRound  = 3
		attempts  = 4
		minRatio  = 5.0
	)
	pb := planBenchSetup(t, companies)

	var actual int
	median := func(prep *Prepared) time.Duration {
		meds := make([]time.Duration, 0, rounds)
		for r := 0; r < rounds; r++ {
			lats := make([]time.Duration, 0, perRound)
			for i := 0; i < perRound; i++ {
				start := time.Now()
				actual = pb.run(t, prep)
				lats = append(lats, time.Since(start))
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			meds = append(meds, lats[len(lats)/2])
		}
		sort.Slice(meds, func(i, j int) bool { return meds[i] < meds[j] })
		return meds[len(meds)/2]
	}

	var up, pl time.Duration
	for attempt := 1; attempt <= attempts; attempt++ {
		up, pl = median(pb.unplanned), median(pb.planned)
		ratio := float64(up) / float64(pl)
		t.Logf("attempt %d: unplanned %v, planned %v (speedup %.2fx; estimated %.1f rows, actual %d)",
			attempt, up, pl, ratio, pb.planned.EstimatedRows(), actual)
		if ratio >= minRatio {
			return
		}
	}
	t.Fatalf("planned point query speedup below %.0fx: unplanned %v, planned %v", minRatio, up, pl)
}
