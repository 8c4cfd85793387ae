package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's contract in one place: the workloads, their fixed sizes,
// and every metric with its unit, direction and bound. BENCHMARK.json at the
// repository root states the same lists for the driver; TestSpecMatchesJSON
// keeps the two from drifting.

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; what "op", "aux" and "work" mean on a workload is fixed in
// its workloadDef (and tabulated in README.md). op_ms and aux_ms are
// quiet-host estimates (stats.go). Tails, medians over whole request streams
// and throughput are per-layer metrics (server.read_tail_ms,
// server.mutate_tail_ms, server.read_p50_ms, bench.work_per_s): on a shared
// host they are what a neighbour moves first, and ten runs of the same code
// spread past any bound the contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"resident_b_per_edge", "B/edge", "lower", 0.05},
	{"op_ms", "ms", "lower", 0.25},
	{"aux_ms", "ms", "lower", 0.25},
}

// perLayer are the traced pass's numbers, one package under internal/ per
// prefix. A workload that never enters a layer reports 0 for its metrics:
// that is the "flat on" column of the README's prediction table made
// literal.
var perLayer = []metricDef{
	{"fingraph.generate_s", "s", "lower", 0},
	{"fingraph.stream_s", "s", "lower", 0},
	{"pg.bulk_add_s", "s", "lower", 0},
	{"pg.bulk_finish_s", "s", "lower", 0},
	{"pg.ingest_edges_per_s", "1/s", "higher", 0},
	{"snapfile.write_s", "s", "lower", 0},
	{"snapfile.bytes_per_edge", "B/edge", "lower", 0},
	{"snapfile.open_ms", "ms", "lower", 0},
	{"metalog.catalog_s", "s", "lower", 0},
	{"metalog.catalog_resident_mb", "MB", "lower", 0},
	{"metalog.extract_s", "s", "lower", 0},
	{"metalog.extract_resident_mb", "MB", "lower", 0},
	{"metalog.extract_facts", "count", "lower", 0},
	{"plan.stats_s", "s", "lower", 0},
	{"server.first_query_ms", "ms", "lower", 0},
	{"server.ready_residual_s", "s", "lower", 0},
	{"metalog.prepare_ms", "ms", "lower", 0},
	{"plan.planned_ratio", "ratio", "higher", 0},
	{"vadalog.clone_ms", "ms", "lower", 0},
	{"vadalog.clone_alloc_mb", "MB", "lower", 0},
	{"vadalog.eval_point1hop_ms", "ms", "lower", 0},
	{"vadalog.eval_closure_ms", "ms", "lower", 0},
	{"vadalog.eval_scan_ms", "ms", "lower", 0},
	{"vadalog.derived_per_row", "ratio", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.read_p50_ms", "ms", "lower", 0},
	{"server.read_tail_ms", "ms", "lower", 0},
	{"server.miss_p50_ms", "ms", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"server.rejected_ratio", "ratio", "lower", 0},
	{"server.mutate_p50_ms", "ms", "lower", 0},
	{"server.mutate_tail_ms", "ms", "lower", 0},
	{"server.mutate_incremental_ratio", "ratio", "higher", 0},
	{"overlay.apply_ms", "ms", "lower", 0},
	{"overlay.delta_size", "count", "lower", 0},
	{"metalog.facts_delta_ms", "ms", "lower", 0},
	{"wal.append_ms", "ms", "lower", 0},
	{"wal.syncs_per_batch", "ratio", "lower", 0},
	{"wal.bytes_per_op_byte", "ratio", "lower", 0},
	{"server.compact_s", "s", "lower", 0},
	{"server.compact_count", "count", "higher", 0},
	{"overlay.compact_s", "s", "lower", 0},
	{"wal.replay_s", "s", "lower", 0},
	{"wal.replay_records", "count", "lower", 0},
	{"instance.load_s", "s", "lower", 0},
	{"instance.views_s", "s", "lower", 0},
	{"instance.flush_s", "s", "lower", 0},
	{"instance.flush_alloc_mb", "MB", "lower", 0},
	{"instance.reason_io_ratio", "ratio", "higher", 0},
	{"metalog.translate_ms", "ms", "lower", 0},
	{"vadalog.fixpoint_s", "s", "lower", 0},
	{"vadalog.rounds", "count", "lower", 0},
	{"vadalog.derived", "count", "lower", 0},
	{"finance.native_control_ms", "ms", "lower", 0},
	{"vadalog.engine_native_ratio", "ratio", "lower", 0},
	{"vadalog.reach_speedup", "ratio", "higher", 0},
	{"vadalog.maintain_pair_ms", "ms", "lower", 0},
	{"vadalog.maintain_recomputed_ratio", "ratio", "lower", 0},
	{"vadalog.maintain_overdeleted", "count", "lower", 0},
	{"bench.work_per_s", "1/s", "higher", 0},
	{"bench.attributed_pct", "%", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// sizes fixes what a workload runs on. Graph shapes are pinned by the
// constant ShapeSeed (defaultShape), not by --seed: the cost of control
// reasoning hangs on a handful of pyramids and moves 2x between shape seeds
// at these sizes, which would bury any regression bound. --seed drives what
// is sampled on top of the shape — attribute values, query keys, churn
// batches, mutation targets — and, where cost follows size alone
// (cold-start, ShapeSeed 0), the graph itself. A hold-out shape, if one is
// wanted, is a workload of its own here with its own baseline row.
type sizes struct {
	Companies       int     `json:"companies"`
	ShapeSeed       int64   `json:"shape_seed"`
	PyramidFraction float64 `json:"pyramid_fraction,omitempty"`
	PyramidDepth    int     `json:"pyramid_depth,omitempty"`
	ChurnShare      float64 `json:"churn_share,omitempty"`
	ChurnPool       int     `json:"churn_pool,omitempty"`
	Clients         int     `json:"clients,omitempty"`
	ReadsPerBatch   int     `json:"reads_per_batch,omitempty"`
	HotKeys         int     `json:"hot_keys,omitempty"`
	HotShare        float64 `json:"hot_share,omitempty"`
	ResultCache     int     `json:"result_cache,omitempty"`
	PlanCache       int     `json:"plan_cache,omitempty"`
	Inflight        int     `json:"inflight,omitempty"`
	CompactEvery    int     `json:"compact_every_batches,omitempty"`
	RecoveryBatches int     `json:"recovery_batches,omitempty"`
	WarmupRequests  int     `json:"warmup_requests,omitempty"`
	RecoveryReps    int     `json:"recovery_reps,omitempty"`
	WALSync         string  `json:"wal_sync,omitempty"`
	SetupReps       int     `json:"setup_reps"`
}

// Fixed process shape: the same on every box, so numbers compare.
const (
	procs         = 2 // GOMAXPROCS
	engineWorkers = 2 // vadalog.Options.Workers in the batch workloads
	defaultShape  = 42
)

type workloadDef struct {
	Name string
	Why  string
	// Listed says the workload is one of BENCHMARK.json's. The driver makes
	// 22 passes of every listed workload inside 57 minutes, which fits four
	// at runSeconds; the other two run with the rest under `bench` and
	// `bench -runs N`, and are compared by `bench -compare`.
	Listed bool
	Op     string // what op_ms times
	Work   string // the unit counted by bench.work_per_s
	Aux    string // what aux_ms times
	// TailQ is the quantile the traced pass's *_tail_ms metrics report while
	// TailBeyond samples lie beyond it; with fewer it is the slowest sample.
	// Only the serve workloads have request streams to take a tail of.
	TailQ      float64
	TailBeyond int
	Sizes      sizes
	run        func(*run) error
}

var workloads = []workloadDef{
	{
		Name: "materialize-control", Listed: true,
		Why:   "Paper s6: Algorithm 2 load+reason+flush of ownership compaction and control on a pyramid-heavy Company KG; instance I/O and the monotonic-sum fixpoint share the wall.",
		Op:    "instance.Materialize on a fresh dictionary",
		Work:  "facts derived per second of Materialize",
		Aux:   "Result.ApplyToPG: writing the derived components back into the data graph",
		Sizes: sizes{Companies: 1500, ShapeSeed: defaultShape, PyramidFraction: 0.4, PyramidDepth: 25, SetupReps: 3},
		run:   runMaterialize,
	},
	{
		Name:  "reason-control",
		Why:   "Example 4.2 control over company/owns relations: vadalog alone, on every carve-out (sequential msum, string group keys, recompute on churn); the native twin is the floor.",
		Op:    "vadalog.RunInPlace of the control program to fixpoint",
		Work:  "facts derived per second of fixpoint",
		Aux:   "Maintainer.Apply of a 0.1% retraction of owns plus its inverse",
		Sizes: sizes{Companies: 30000, ShapeSeed: defaultShape, ChurnShare: 0.001, ChurnPool: 32, SetupReps: 3},
		run:   runReasonControl,
	},
	{
		Name: "reason-reach", Listed: true,
		Why:   "Two-rule ownership closure: same engine, no aggregate, so sharded evaluation, hashed relations and DRed run; an aggregate fast path must leave it flat.",
		Op:    "vadalog.RunInPlace of the reach closure to fixpoint",
		Work:  "facts derived per second of fixpoint",
		Aux:   "Maintainer.Apply of a 0.1% retraction of owns plus its inverse",
		Sizes: sizes{Companies: 60000, ShapeSeed: defaultShape, ChurnShare: 0.001, ChurnPool: 32, SetupReps: 3},
		run:   runReasonReach,
	},
	{
		Name:  "cold-start",
		Why:   "Generator stream to bulk load to snapshot on disk, then server.New to the first 200: ingest rate, time to first answer and resident bytes per edge, paid on every start.",
		Op:    "server.New on the snapshot until the first /query body is read",
		Work:  "edges per second from generator to first answer",
		Aux:   "StreamTopology -> BulkLoader -> snapfile.WriteFile",
		Sizes: sizes{Companies: 50000, ResultCache: 1024, PlanCache: 128, Inflight: 8, SetupReps: 3},
		run:   runColdStart,
	},
	{
		Name: "serve-read", Listed: true,
		Why:   "One closed-loop analyst on a loopback kgserve: 60% point, 30% closure, 10% scan; 30% of keys from a 64-key hot set, so the working set exceeds the result cache.",
		Op:    "POST /query answered X-KG-Cache: miss",
		Work:  "200 responses per second, hits included",
		Aux:   "the scan queries among those misses",
		TailQ: 0.95, TailBeyond: 10,
		Sizes: sizes{Companies: 10000, ShapeSeed: defaultShape, Clients: 1, HotKeys: 64, HotShare: 0.3,
			ResultCache: 1024, PlanCache: 128, Inflight: 8, WarmupRequests: 40, SetupReps: 3},
		run: runServeRead,
	},
	{
		Name: "serve-write", Listed: true,
		Why:   "One client alternating an 8-op /mutate batch (fsync always, count-triggered compaction) with two reads, then recovery from the WAL: a read gain that costs writes shows.",
		Op:    "POST /mutate of one 8-op batch, acknowledged after fsync",
		Work:  "200 responses per second, reads plus batches",
		Aux:   "server.New on the used WAL directory until the first /query body is read",
		TailQ: 0.90, TailBeyond: 10,
		Sizes: sizes{Companies: 10000, ShapeSeed: defaultShape, Clients: 1, ReadsPerBatch: 2, HotKeys: 64, HotShare: 0.3,
			ResultCache: 1024, PlanCache: 128, Inflight: 8, CompactEvery: 100,
			RecoveryBatches: 48, RecoveryReps: 9, WarmupRequests: 20, WALSync: "always", SetupReps: 3},
		run: runServeWrite,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func findMetric(name string) *metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// scaled shrinks a workload for -smoke: every count is multiplied by f and
// floored, so the harness runs end to end in well under a second per
// workload.
func (s sizes) scaled(f float64) sizes {
	if f >= 1 {
		return s
	}
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if m := int(float64(n) * f); m > floor {
			return m
		}
		return floor
	}
	s.Companies = shrink(s.Companies, 120)
	s.WarmupRequests = shrink(s.WarmupRequests, 2)
	s.CompactEvery = shrink(s.CompactEvery, 3)
	s.RecoveryBatches = shrink(s.RecoveryBatches, 2)
	s.RecoveryReps = shrink(s.RecoveryReps, 1)
	s.SetupReps = 1
	return s
}

// driverCommand and runSeconds are the rest of what BENCHMARK.json states.
var driverCommand = []string{"bash", "bench/run.sh"}

// runSeconds is the measured region of one pass. 4 + 22 x 4 passes of
// runSeconds plus set-up and checks (README, "Time budget") come to about
// 41 of the driver's 57 minutes.
const runSeconds = 20

// benchmarkJSON renders the spec as the BENCHMARK.json the driver reads.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: driverCommand, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if w.Listed {
			doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // plain structs
	return buf.Bytes()
}
