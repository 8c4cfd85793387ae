package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/overlay"
)

func TestPercentileSelection(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (nearest rank)", got)
	}
	if got := percentile(xs, 1); got != 200 {
		t.Errorf("p100 = %v, want 200", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if xs[0] != 200 {
		t.Error("percentile sorted its input in place")
	}
	// A p95 is refused below 200 samples: ten must lie beyond it.
	if got := tail(xs[1:], 0.95, 10); got != 199 {
		t.Errorf("p95 tail of 199 samples = %v, want the slowest (199)", got)
	}
	if got := tail(xs, 0.95, 10); got != 190 {
		t.Errorf("p95 tail of 200 samples = %v, want 190", got)
	}
}

func TestTailFallsBackToSlowestSample(t *testing.T) {
	few := []float64{3, 9, 4}
	if got := tail(few, 0.95, 10); got != 9 {
		t.Errorf("p95 tail on 3 samples = %v, want the slowest sample", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := tail(hundred, 0.90, 10); got != 90 {
		t.Errorf("p90 tail on 100 samples = %v, want 90", got)
	}
	if got := tail(hundred, 0.95, 10); got != 100 {
		t.Errorf("p95 tail on 100 samples = %v, want the slowest: only five lie beyond", got)
	}
}

// TestQuietEstimates pins the end-to-end timings' estimators: the fifth
// percentile of an operation's samples, and over a pool of operations the median
// of each one's.
func TestQuietEstimates(t *testing.T) {
	if got := quiet([]float64{5, 3, 9}); got != 3 {
		t.Errorf("quiet of 3 reps = %v, want the fastest", got)
	}
	reps := make([]float64, 40)
	for i := range reps {
		reps[i] = float64(40 - i)
	}
	if got := quiet(reps[20:]); got != 1 {
		t.Errorf("quiet of 20 reps = %v, want the fastest", got)
	}
	if got := quiet(reps); got != 2 {
		t.Errorf("quiet of 40 reps = %v, want the second fastest", got)
	}
	// A pool of three operations visited four times: the first costs 10, the
	// second 40, the third 20, and one visit in four is disturbed (x3).
	var visits []float64
	for round := 0; round < 4; round++ {
		for _, cost := range []float64{10, 40, 20} {
			if len(visits)%4 == 0 {
				cost *= 3
			}
			visits = append(visits, cost)
		}
	}
	if got := quietPool(visits, 3); got != 20 {
		t.Errorf("quietPool = %v, want 20: the median of each operation's best visit", got)
	}
}

func TestIQRShareFollowsPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := iqrShare([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("iqrShare(1,2,4) = %v, want 1.5", got)
	}
}

func TestJudgeDirectionAndBound(t *testing.T) {
	lower := metricDef{"op_ms", "ms", "lower", 0.10}
	higher := metricDef{"bench.work_per_s", "1/s", "higher", 0.10}
	cases := []struct {
		def            metricDef
		old, new, sprd float64
		want           verdict
	}{
		{lower, 100, 109, 0, same},
		{lower, 100, 111, 0, worse},
		{lower, 100, 89, 0, better},
		{higher, 100, 89, 0, worse},
		{higher, 100, 111, 0, better},
		{higher, 100, 95, 0, same},
		{lower, 100, 150, 0.12, unresolved}, // spread wider than the bound
		{lower, 100, 150, 0.10, worse},      // spread at the bound still resolves
		{lower, 0, 5, 0, unresolved},
		{lower, 0, 0, 0, same},
	}
	for _, c := range cases {
		if got := judge(c.def, c.old, c.new, c.sprd); got != c.want {
			t.Errorf("judge(%s %s, %v -> %v, spread %v) = %s, want %s", c.def.Name, c.def.Better, c.old, c.new, c.sprd, got, c.want)
		}
	}
}

func TestCompareFailsOnWorseAndOnNewFailures(t *testing.T) {
	mk := func(op float64, failed int) *summary {
		e2e := map[string]metricValue{}
		for _, d := range endToEnd {
			e2e[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		e2e["op_ms"] = metricValue{Value: op, Unit: "ms"}
		return &summary{Workloads: map[string]passResult{"serve-read": {Attempted: 1000, Failed: failed, EndToEnd: e2e}}}
	}
	if _, bad := compareSummaries(mk(100, 0), mk(105, 0)); bad != 0 {
		t.Errorf("a 5%% move inside the bound counted as worse (%d)", bad)
	}
	rows, bad := compareSummaries(mk(100, 0), mk(130, 0))
	if bad != 1 {
		t.Errorf("a 30%% slowdown gave %d worse rows, want 1", bad)
	}
	if len(rows) != len(endToEnd)+1 {
		t.Errorf("%d rows, want one per end-to-end metric plus failed_ratio", len(rows))
	}
	if _, bad := compareSummaries(mk(100, 0), mk(100, 1)); bad != 1 {
		t.Errorf("one new failed operation gave %d worse rows, want 1: failed_ratio may not rise at all", bad)
	}
}

func TestCompareFailsOnAMissingPair(t *testing.T) {
	full := map[string]metricValue{}
	for _, d := range endToEnd {
		full[d.Name] = metricValue{Value: 100, Unit: d.Unit}
	}
	old := &summary{Workloads: map[string]passResult{
		"serve-read":  {Attempted: 10, EndToEnd: full},
		"serve-write": {Attempted: 10, EndToEnd: full},
	}}
	if _, bad := compareSummaries(old, old); bad != 0 {
		t.Fatalf("a summary against itself gave %d bad rows", bad)
	}
	// A summary that dropped a workload reads as 0 everywhere, which would
	// judge "better" on every lower-is-better metric.
	dropped := &summary{Workloads: map[string]passResult{"serve-read": old.Workloads["serve-read"]}}
	rows, bad := compareSummaries(old, dropped)
	if want := len(endToEnd) + 1; bad != want {
		t.Errorf("a dropped workload gave %d bad rows, want %d", bad, want)
	}
	for _, r := range rows {
		if r.Workload == "serve-write" && r.Verdict != missing {
			t.Errorf("%s@serve-write judged %s, want missing", r.Metric, r.Verdict)
		}
	}
	partial := map[string]metricValue{}
	for n, m := range full {
		if n != "aux_ms" {
			partial[n] = m
		}
	}
	lacks := &summary{Workloads: map[string]passResult{
		"serve-read":  {Attempted: 10, EndToEnd: partial},
		"serve-write": {Attempted: 10, EndToEnd: full},
	}}
	if _, bad := compareSummaries(old, lacks); bad != 1 {
		t.Errorf("a dropped metric gave %d bad rows, want 1", bad)
	}
	if _, bad := compareSummaries(lacks, old); bad != 1 {
		t.Errorf("a metric the old summary lacks gave %d bad rows, want 1", bad)
	}
}

// TestZeroSamplesAreFlaggedNotReported pins what a pass does with a timing it
// took no samples of: the metric is flagged unavailable and reads 0 in the
// driver's line; no NaN reaches the JSON encoder.
func TestZeroSamplesAreFlaggedNotReported(t *testing.T) {
	cases := []struct {
		name   string
		report func(r *run)
	}{
		{"server.mutate_tail_ms", func(r *run) { r.sample("server.mutate_tail_ms", nil, r.tail) }},
		{"server.miss_p50_ms", func(r *run) { r.sample("server.miss_p50_ms", []float64{}, median) }},
		{"bench.trace_overhead_pct", func(r *run) { r.overhead(nil, []float64{1, 2}) }},
		{"bench.trace_overhead_pct", func(r *run) { r.overhead([]float64{1, 2}, nil) }},
	}
	for _, c := range cases {
		r := &run{def: findWorkload("serve-write"), traced: true, tr: newTracer(), metrics: map[string]metricValue{}}
		c.report(r)
		if _, set := r.metrics[c.name]; set {
			t.Errorf("%s: set from zero samples", c.name)
		}
		if len(r.unavailable) != 1 || r.unavailable[0].Name != c.name {
			t.Errorf("%s: flagged as %+v", c.name, r.unavailable)
		}
		r.op(true)
		line, err := r.finish(t.TempDir())
		if err != nil {
			t.Errorf("%s: finish failed: %v", c.name, err)
		}
		if !regexp.MustCompile(`"` + regexp.QuoteMeta(c.name) + `":\{"value":0,`).MatchString(line) {
			t.Errorf("%s: not 0 in the driver's line: %s", c.name, line)
		}
	}
	r := &run{def: findWorkload("serve-write"), traced: true, tr: newTracer(), metrics: map[string]metricValue{}}
	r.set("server.overhead_ms", median(nil))
	if _, err := r.finish(t.TempDir()); err == nil {
		t.Error("finish accepted a NaN metric")
	}
}

func TestRequestGenDeterministicAndOnMix(t *testing.T) {
	const companies, hotKeys, draws = 10000, 64, 40000
	a := newRequestGen(7, 0, companies, hotKeys, 0.3)
	b := newRequestGen(7, 0, companies, hotKeys, 0.3)
	other := newRequestGen(8, 0, companies, hotKeys, 0.3)
	kinds := map[string]int{}
	hot, keyed, differs := 0, 0, false
	for i := 0; i < draws; i++ {
		qa, qb, qo := a.next(), b.next(), other.next()
		if qa != qb {
			t.Fatalf("draw %d: same seed and client gave %v and %v", i, qa, qb)
		}
		differs = differs || qa != qo
		kinds[qa.Kind]++
		if qa.Kind != kindScan {
			keyed++
			if qa.Hot {
				hot++
			}
		} else if qa.Limit != scanLimit {
			t.Fatalf("scan without its limit: %+v", qa)
		}
	}
	if !differs {
		t.Error("a different seed gave the same stream")
	}
	for kind, want := range map[string]float64{kindPoint: 0.60, kindClosure: 0.30, kindScan: 0.10} {
		if got := float64(kinds[kind]) / draws; math.Abs(got-want) > 0.015 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
	if got := float64(hot) / float64(keyed); math.Abs(got-0.3) > 0.015 {
		t.Errorf("hot-set share %.3f, want 0.30", got)
	}
	// Clients of one run share the hot set but not the stream.
	c1 := newRequestGen(7, 1, companies, hotKeys, 0.3)
	if c1.hot[0] != a.hot[0] || c1.hot[hotKeys-1] != a.hot[hotKeys-1] {
		t.Error("two clients of one seed disagree on the hot set")
	}
	c0, sameStream := newRequestGen(7, 0, companies, hotKeys, 0.3), true
	for i := 0; i < 8; i++ {
		sameStream = sameStream && c0.next() == c1.next()
	}
	if sameStream {
		t.Error("two clients of one seed send the same stream")
	}
}

func TestMutationGenBatchShape(t *testing.T) {
	shape := graphShape{Persons: 1600, Companies: 1000, Edges: 3000}
	a, b := newMutationGen(3, shape), newMutationGen(3, shape)
	removed := map[int64]bool{}
	for i := 0; i < 500; i++ {
		ops, ok := a.batch()
		ops2, _ := b.batch()
		if !ok {
			t.Fatalf("stream ended at batch %d", i)
		}
		ba, _ := mutateBody(ops)
		bb, _ := mutateBody(ops2)
		if !bytes.Equal(ba, bb) {
			t.Fatalf("batch %d differs between two generators of one seed", i)
		}
		kinds := map[overlay.OpKind]int{}
		for _, op := range ops {
			kinds[op.Kind]++
			switch op.Kind {
			case overlay.OpRemoveEdge:
				id := int64(op.Edge)
				if removed[id] {
					t.Fatalf("batch %d removes edge %d a second time", i, id)
				}
				if id <= int64(shape.nodes()) || id > int64(shape.nodes()+shape.Edges) {
					t.Fatalf("batch %d removes %d, not a base edge", i, id)
				}
				removed[id] = true
			case overlay.OpAddEdge:
				if op.From.ID < 1 || int(op.From.ID) > shape.nodes() || int(op.To.ID) <= shape.Persons || int(op.To.ID) > shape.nodes() {
					t.Fatalf("batch %d adds an edge between %v and %v, not existing entities", i, op.From, op.To)
				}
			}
		}
		if len(ops) != 8 || kinds[overlay.OpAddEdge] != 4 || kinds[overlay.OpRemoveEdge] != 2 ||
			kinds[overlay.OpSetNodeProp] != 1 || kinds[overlay.OpAddNode] != 1 {
			t.Fatalf("batch %d has shape %v, want 4 add_edge, 2 remove_edge, 1 set_node_prop, 1 add_node", i, kinds)
		}
	}
	// 3000 base edges at 2 per batch: the stream ends rather than repeat.
	for i := 500; i < 1500; i++ {
		a.batch()
	}
	if _, ok := a.batch(); ok {
		t.Error("the stream outlived the base edges it removes without replacement")
	}
}

func TestChurnGenCyclesAPinnedPoolInSeededOrder(t *testing.T) {
	const pool = 8
	a, b := newChurnGen(42, 5, 10000, 0.001, pool), newChurnGen(42, 5, 10000, 0.001, pool)
	other := newChurnGen(42, 6, 10000, 0.001, pool)
	key := func(xs []int) string { return fmt.Sprint(xs) }
	first, firstOther := map[string]int{}, map[string]int{}
	sameOrder := true
	for i := 0; i < 3*pool; i++ {
		xa, xb, xo := a.batch(), b.batch(), other.batch()
		if len(xa) != 10 {
			t.Fatalf("batch of %d, want 0.1%% of 10000", len(xa))
		}
		if key(xa) != key(xb) {
			t.Fatal("same seed, different churn")
		}
		sameOrder = sameOrder && key(xa) == key(xo)
		seen := map[int]bool{}
		for _, x := range xa {
			if seen[x] {
				t.Fatal("a fact drawn twice inside one batch")
			}
			seen[x] = true
		}
		first[key(xa)]++
		firstOther[key(xo)]++
	}
	if sameOrder {
		t.Error("a different seed cycles the pool in the same order")
	}
	if len(first) != pool || len(firstOther) != pool {
		t.Fatalf("%d and %d distinct batches, want the pool's %d under either seed", len(first), len(firstOther), pool)
	}
	for k, n := range first {
		if n != 3 || firstOther[k] != 3 {
			t.Errorf("a pool batch was visited %d and %d times in three cycles, want 3 under either seed", n, firstOther[k])
		}
	}
	if got := len(newChurnGen(42, 5, 50, 0.001, pool).batch()); got != 1 {
		t.Errorf("batch of %d on a tiny relation, want at least one fact", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},  // 30
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps 2: union 10..60 = 50
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // clipped to the parent: 10
		{ID: 5, Parent: 2, StartNS: 15, EndNS: 20},  // grandchild: comes off 2, not 1
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var off *tracer
	if id := off.start("x", "bench", 0, 0); id != 0 {
		t.Error("nil tracer handed out a span")
	}
	off.end(0)
	tr := newTracer()
	root := tr.start("root", "bench", 0, 3)
	child := tr.start("child", "pg", root, 3)
	sink := make([]byte, 1<<20)
	_ = sink
	tr.end(child)
	tr.end(root)
	got := tr.named("child")
	if len(got) != 1 || got[0].Parent != root || got[0].Rep != 3 || got[0].EndNS < got[0].StartNS {
		t.Fatalf("child span recorded as %+v", got)
	}
	if got[0].AllocBytes < 1<<20 {
		t.Errorf("a 1 MiB allocation inside the span shows as %d bytes", got[0].AllocBytes)
	}
	if reps := tr.selfByRep("root", "child"); len(reps) != 1 {
		t.Errorf("selfByRep grouped one rep into %d", len(reps))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecMatchesJSONAndItsLimits(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run . -print-benchmark-json > ../BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	listed := 0
	for _, w := range workloads {
		if w.Listed {
			listed++
		}
	}
	if listed < 2 || listed > 8 {
		t.Errorf("%d listed workloads, want 2 to 8", listed)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Sizes.SetupReps < 3 {
			t.Errorf("%s: setup_s must be a median over several set-ups", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
}

// TestSmoke drives every workload at about 1% size through both passes, so
// the harness cannot rot between full runs.
func TestSmoke(t *testing.T) {
	if err := runSmoke(42, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
