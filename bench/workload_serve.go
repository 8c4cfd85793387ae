package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/snapfile"
	"repro/internal/vadalog"
	"repro/internal/wal"
)

// sampleEvery is the share of reads kept for the byte-equality check
// against the reference server: one in 50.
const sampleEvery = 50

// readLog is what one closed-loop reader saw: every answered request, those
// answered X-KG-Cache: miss among them, and the scans among those.
type readLog struct {
	allMS, missMS, scanMissMS []float64
	// plainMissMS holds, in a traced run, the misses of the requests sent
	// without a span; missMS then holds the spanned ones only.
	plainMissMS []float64
	ok, failed  int
	samples     []readSample
}

type readSample struct {
	body, reply []byte
}

func (a *readLog) merge(b readLog) {
	a.allMS = append(a.allMS, b.allMS...)
	a.missMS = append(a.missMS, b.missMS...)
	a.scanMissMS = append(a.scanMissMS, b.scanMissMS...)
	a.plainMissMS = append(a.plainMissMS, b.plainMissMS...)
	a.ok += b.ok
	a.failed += b.failed
	a.samples = append(a.samples, b.samples...)
}

// spanBlock is the length of the alternating blocks of requests a traced
// client sends with and without a span: the two interleave over the whole
// phase, so comparing them prices the span bookkeeping and nothing else.
const spanBlock = 16

// tracedFloor is the least number of requests a traced client sends however
// short its phase: one block without spans and one with, so that both sides
// of bench.trace_overhead_pct have samples.
func tracedFloor(tr *tracer) int {
	if tr == nil {
		return 0
	}
	return 2 * spanBlock
}

// reader is one analyst: it sends its next request only once the previous
// reply has been read. tr and parent may be zero.
type reader struct {
	ls     *liveServer
	gen    *requestGen
	tr     *tracer
	parent int
	client int
	sent   int
	log    readLog
}

func (rd *reader) one() {
	q := rd.gen.next()
	body := q.body()
	spans := rd.tr
	if (rd.sent/spanBlock)%2 == 0 {
		spans = nil
	}
	id := spans.start("POST /query "+q.Kind, "server", rd.parent, rd.client)
	rp, err := rd.ls.post("/query", body)
	spans.end(id)
	i := rd.sent
	rd.sent++
	log := &rd.log
	if err != nil || rp.status != http.StatusOK {
		log.failed++
		return
	}
	log.ok++
	log.allMS = append(log.allMS, ms(rp.wall))
	switch {
	case rp.cache != "miss":
	case rd.tr != nil && spans == nil:
		log.plainMissMS = append(log.plainMissMS, ms(rp.wall))
	default:
		log.missMS = append(log.missMS, ms(rp.wall))
		if q.Kind == kindScan {
			log.scanMissMS = append(log.scanMissMS, ms(rp.wall))
		}
	}
	if i%sampleEvery == 0 {
		log.samples = append(log.samples, readSample{body, rp.body})
	}
}

// readers runs n closed-loop analysts for d and merges what they saw.
func readers(ls *liveServer, r *run, n int, d time.Duration, streamOffset int, tr *tracer, parent int) readLog {
	deadline := time.Now().Add(d)
	logs := make([]readLog, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rd := &reader{ls: ls, tr: tr, parent: parent, client: c,
				gen: newRequestGen(r.seed, streamOffset+c, r.sz.Companies, r.sz.HotKeys, r.sz.HotShare)}
			for rd.sent < tracedFloor(tr) || time.Now().Before(deadline) {
				rd.one()
			}
			logs[c] = rd.log
		}(c)
	}
	wg.Wait()
	var all readLog
	for _, l := range logs {
		all.merge(l)
	}
	return all
}

// warmUp sends a fixed number of requests from a stream of its own.
func warmUp(ls *liveServer, r *run, n int) error {
	gen := newRequestGen(r.seed, 1000, r.sz.Companies, r.sz.HotKeys, r.sz.HotShare)
	for i := 0; i < n; i++ {
		rp, err := ls.post("/query", gen.next().body())
		if err != nil || rp.status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d, %v", i, rp.status, err)
		}
	}
	return nil
}

// serveGraph is the snapshot both serve workloads run on. Its shape is
// pinned; the run seed drives the request and mutation streams.
func serveGraph(r *run, path string) (graphShape, int64, error) {
	return ingest(fingraph.DefaultConfig(r.sz.Companies, r.sz.ShapeSeed), path, nil, 0, 0)
}

func concat(a, b []float64) []float64 {
	return append(append([]float64(nil), a...), b...)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func runServeRead(r *run) error {
	path := filepath.Join(r.workDir, "serve.snap")
	var (
		ls        *liveServer
		shape     graphShape
		snapBytes int64
	)
	teardown, err := r.setup(func() (func(), error) {
		var err error
		if shape, snapBytes, err = serveGraph(r, path); err != nil {
			return nil, err
		}
		if ls, err = startServer(serveConfig(r.sz, path), r.sz.Clients); err != nil {
			return nil, err
		}
		stop := func() { ls.stop() } //nolint:errcheck // teardown between set-ups
		return stop, warmUp(ls, r, r.sz.WarmupRequests)
	})
	if err != nil {
		return err
	}
	defer teardown()

	if r.traced {
		return serveReadTraced(r, ls, path)
	}

	before := server.CountersSnapshot()
	log := readers(ls, r, r.sz.Clients, r.budget(), 0, nil, 0)
	after := server.CountersSnapshot()
	r.attempted += log.ok + log.failed
	r.failed += log.failed
	r.check("none-rejected", after.Rejected == before.Rejected, "%d requests answered 429", after.Rejected-before.Rejected)

	r.resources(shape.Edges, snapBytes)
	// Misses only: a hit costs 0.1 ms, and a statistic over hits and misses
	// together moves with the hit ratio more than with what either costs.
	r.sample("op_ms", log.missMS, quiet)
	// The fast end of all misses is the point and closure queries, whose
	// cost is the clone; the scans are the requests whose cost is evaluation.
	r.sample("aux_ms", log.scanMissMS, quiet)

	// The oracle is built only now, so that its memory is not the
	// workload's: a second server on the same snapshot with the planner and
	// the cache off must answer every sampled request byte for byte.
	cfg := serveConfig(r.sz, path)
	cfg.PlannerOff, cfg.CacheSize = true, 0
	ref, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer ref.Shutdown(context.Background()) //nolint:errcheck // never listened
	for i, s := range log.samples {
		status, want := inProcess(ref, "/query", s.body)
		r.check("reply-equals-unplanned-uncached", status == http.StatusOK && bytes.Equal(want, s.reply),
			"sample %d (%s): reference status %d, %d vs %d bytes", i, s.body, status, len(want), len(s.reply))
	}
	return nil
}

// substrate is the benchmark's own copy of what a serving generation holds
// — catalog, fact database, planner statistics — built from the same
// snapshot file through the same layer calls, so a request can be replayed
// one layer at a time outside the server.
type substrate struct {
	sf    *snapfile.Snapshot
	cat   *metalog.Catalog
	db    *vadalog.Database
	stats *plan.Stats
}

func openSubstrate(r *run, path string) (*substrate, error) {
	tr := r.tr
	root := tr.start("ready", "bench", 0, 0)
	defer tr.end(root)
	id := tr.start("snapfile.Open", "snapfile", root, 0)
	sf, err := snapfile.Open(path)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.startResident("metalog.FromGraph", "metalog", root, 0)
	cat := metalog.FromGraph(sf.Frozen)
	tr.endResident(id)
	id = tr.startResident("metalog.ExtractFacts", "metalog", root, 0)
	db, err := metalog.ExtractFacts(sf.Frozen, cat)
	tr.endResident(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("metalog.ComputePlanStats", "plan", root, 0)
	stats := metalog.ComputePlanStats(sf.Frozen, cat)
	tr.end(id)
	r.set("metalog.extract_facts", float64(db.TotalFacts()))
	return &substrate{sf, cat, db, stats}, nil
}

// replayRead is one cache-missing /query taken apart: prepare, clone the
// serving database, evaluate on the clone — the three layer calls
// handleQuery makes between decoding the request and marshaling the rows.
func (s *substrate) replayRead(tr *tracer, q request, rep int, countDerived bool) (rows int, derived int64, planned bool, err error) {
	root := tr.start("query", "bench", 0, rep)
	defer tr.end(root)
	id := tr.start("metalog.PrepareQuery", "metalog", root, rep)
	prep, err := metalog.PrepareQuery(s.cat.Clone(), q.Query, s.stats)
	tr.end(id)
	if err != nil {
		return 0, 0, false, err
	}
	id = tr.start("vadalog.Database.Clone", "vadalog", root, rep)
	clone := s.db.Clone()
	tr.end(id)
	opts := vadalog.Options{Workers: 1, MaxFacts: 1_000_000, OwnInput: true}
	id = tr.start("eval "+q.Kind, "vadalog", root, rep)
	out, err := prep.QueryDB(context.Background(), clone, opts)
	tr.end(id)
	if err != nil {
		return 0, 0, false, err
	}
	if countDerived {
		// A second, untimed evaluation under the engine's own run trace
		// yields the derived-fact count the rows cost.
		opts.Trace = obs.NewTrace()
		if _, err := prep.QueryDB(context.Background(), s.db.Clone(), opts); err != nil {
			return 0, 0, false, err
		}
		for _, rt := range opts.Trace.Runs() {
			derived += int64(rt.Outcome.Derived)
		}
	}
	return len(out), derived, prep.Planned(), nil
}

// derivedSample is how many replayed requests per client are evaluated a
// second time to count derived facts: a fixed prefix of the stream, so the
// ratio repeats for a seed.
const derivedSample = 12

// serveReadTraced splits its time in two: the HTTP load again, with a span
// around every other block of requests, and then the request stream replayed
// layer by layer by the same number of goroutines.
func serveReadTraced(r *run, ls *liveServer, path string) error {
	tr := r.tr
	sub, err := openSubstrate(r, path)
	if err != nil {
		return err
	}
	defer sub.sf.Close() //nolint:errcheck // read-only mapping
	reportReadyLayers(r)

	before := server.CountersSnapshot()
	phase := tr.start("http-load", "bench", 0, 0)
	start := time.Now()
	log := readers(ls, r, r.sz.Clients, r.budget()*5/8, 0, tr, phase)
	wall := time.Since(start)
	tr.end(phase)
	after := server.CountersSnapshot()
	r.attempted += log.ok + log.failed
	r.failed += log.failed

	deadline := time.Now().Add(r.budget() * 3 / 8)
	type tally struct {
		total         []float64
		rows, derived int64
		planned, n    int
		err           error
	}
	tallies := make([]tally, r.sz.Clients)
	var wg sync.WaitGroup
	for c := 0; c < r.sz.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			gen := newRequestGen(r.seed, c, r.sz.Companies, r.sz.HotKeys, r.sz.HotShare)
			for i := 0; i < derivedSample || time.Now().Before(deadline); i++ {
				rep := c*1_000_000 + i
				q := gen.next()
				start := time.Now()
				_, _, planned, err := sub.replayRead(tr, q, rep, false)
				t.total = append(t.total, ms(time.Since(start)))
				if err == nil && i < derivedSample {
					var rows int
					var derived int64
					rows, derived, _, err = sub.replayRead(nil, q, rep, true)
					t.rows += int64(rows)
					t.derived += derived
				}
				if err != nil {
					t.err = err
					return
				}
				t.n++
				if planned {
					t.planned++
				}
			}
		}(c)
	}
	wg.Wait()
	var total []float64
	var rows, derived int64
	planned, n := 0, 0
	for _, t := range tallies {
		if t.err != nil {
			return fmt.Errorf("replaying a read: %w", t.err)
		}
		total = append(total, t.total...)
		rows, derived = rows+t.rows, derived+t.derived
		planned, n = planned+t.planned, n+t.n
	}
	r.attempted += n

	r.sample("server.read_p50_ms", log.allMS, median)
	r.sample("server.read_tail_ms", log.allMS, r.tail)
	r.set("bench.work_per_s", float64(log.ok)/secs(wall))
	misses := concat(log.missMS, log.plainMissMS)
	r.sample("server.miss_p50_ms", misses, median)
	reportServerCounters(r, before, after)
	reportReadLayers(r, median(misses), median(total))
	r.set("plan.planned_ratio", float64(planned)/float64(n))
	r.set("vadalog.derived_per_row", ratio(derived, rows))
	r.overhead(log.missMS, log.plainMissMS)
	return nil
}

// reportServerCounters turns the server's process-wide counters, read before
// and after an HTTP phase, into the ratios of that phase.
func reportServerCounters(r *run, before, after server.CounterSnapshot) {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	planHits, planMisses := after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses
	r.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("server.plan_cache_hit_ratio", ratio(planHits, planHits+planMisses))
	r.set("server.rejected_ratio", ratio(after.Rejected-before.Rejected, after.Requests-before.Requests))
}

// reportReadLayers turns the replayed "query" spans into the read-path
// layer metrics; missMS is the HTTP miss median they are set against.
func reportReadLayers(r *run, missMS, replayMS float64) {
	tr := r.tr
	r.sample("metalog.prepare_ms", tr.selfByRep("metalog.PrepareQuery"), median)
	r.sample("vadalog.clone_ms", tr.selfByRep("vadalog.Database.Clone"), median)
	r.sample("vadalog.clone_alloc_mb", spanAllocMB(tr.named("vadalog.Database.Clone")), median)
	r.sample("vadalog.eval_point1hop_ms", tr.selfByRep("eval "+kindPoint), median)
	r.sample("vadalog.eval_closure_ms", tr.selfByRep("eval "+kindClosure), median)
	r.sample("vadalog.eval_scan_ms", tr.selfByRep("eval "+kindScan), median)
	r.set("server.overhead_ms", missMS-replayMS)
	r.set("bench.attributed_pct", 100*replayMS/missMS)
}

// ack is the part of a /mutate reply the workload checks recovery against.
type ack struct {
	Seq         uint64 `json:"seq"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Incremental bool   `json:"incremental"`
	DeltaSize   int    `json:"deltaSize"`
}

// writeLog is what the writer saw.
type writeLog struct {
	mutateMS, compactMS []float64
	// plainMS holds, in a traced run, the batches sent without a span;
	// mutateMS then holds the spanned ones only.
	plainMS       []float64
	deltaSizes    []float64
	acked, failed int
	incremental   int
	last          ack
}

// writer is the writing half of the closed loop: one batch at a time, and a
// POST /compact after every compactEvery acknowledged batches — triggered
// by count, never by a timer, so its stalls land reproducibly.
type writer struct {
	ls           *liveServer
	gen          *mutationGen
	compactEvery int
	sinceCompact int
	log          writeLog
}

func (w *writer) batch(tr *tracer, parent int) error {
	ops, ok := w.gen.batch()
	if !ok {
		return fmt.Errorf("mutation stream exhausted after %d batches", w.gen.next)
	}
	body, err := mutateBody(ops)
	if err != nil {
		return err
	}
	spans := tr
	if (w.gen.next/spanBlock)%2 == 0 {
		spans = nil
	}
	id := spans.start("POST /mutate", "server", parent, w.gen.next)
	rp, err := w.ls.post("/mutate", body)
	spans.end(id)
	if err != nil || rp.status != http.StatusOK {
		w.log.failed++
		return fmt.Errorf("batch %d: status %d, %v: %s", w.gen.next, rp.status, err, rp.body)
	}
	var a ack
	if err := json.Unmarshal(rp.body, &a); err != nil {
		return err
	}
	w.log.acked++
	w.log.last = a
	if tr != nil && spans == nil {
		w.log.plainMS = append(w.log.plainMS, ms(rp.wall))
	} else {
		w.log.mutateMS = append(w.log.mutateMS, ms(rp.wall))
	}
	if a.Incremental {
		w.log.incremental++
	}
	if w.sinceCompact++; w.sinceCompact >= w.compactEvery {
		w.log.deltaSizes = append(w.log.deltaSizes, float64(a.DeltaSize))
		return w.compact(tr, parent)
	}
	return nil
}

func (w *writer) compact(tr *tracer, parent int) error {
	id := tr.start("POST /compact", "server", parent, w.gen.next)
	rp, err := w.ls.post("/compact", nil)
	tr.end(id)
	if err != nil || rp.status != http.StatusOK {
		w.log.failed++
		return fmt.Errorf("compact after batch %d: status %d, %v: %s", w.gen.next, rp.status, err, rp.body)
	}
	w.sinceCompact = 0
	w.log.compactMS = append(w.log.compactMS, ms(rp.wall))
	return nil
}

func runServeWrite(r *run) error {
	path := filepath.Join(r.workDir, "serve.snap")
	walDir := filepath.Join(r.workDir, "wal")
	compactDir := filepath.Join(r.workDir, "compact")
	var (
		ls        *liveServer
		shape     graphShape
		snapBytes int64
		wr        *writer
	)
	cfg := func() server.Config {
		c := serveConfig(r.sz, path)
		c.WALDir, c.WALSync, c.CompactDir = walDir, r.sz.WALSync, compactDir
		return c
	}
	teardown, err := r.setup(func() (func(), error) {
		for _, dir := range []string{walDir, compactDir} {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		var err error
		if shape, snapBytes, err = serveGraph(r, path); err != nil {
			return nil, err
		}
		if ls, err = startServer(cfg(), r.sz.Clients); err != nil {
			return nil, err
		}
		stop := func() { ls.stop() } //nolint:errcheck // teardown between set-ups
		wr = &writer{ls: ls, gen: newMutationGen(r.seed, shape), compactEvery: r.sz.CompactEvery}
		// Warm both paths: a few reads, and a few batches that go through
		// the WAL, the overlay and the fact delta once.
		if err := warmUp(ls, r, r.sz.WarmupRequests); err != nil {
			return stop, err
		}
		for i := 0; i < r.sz.WarmupRequests/4+1; i++ {
			if err := wr.batch(nil, 0); err != nil {
				return stop, err
			}
		}
		wr.log = writeLog{last: wr.log.last}
		return stop, nil
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			teardown()
		}
	}()

	// Measured region: one closed-loop client that writes a batch and then
	// reads ReadsPerBatch queries, so every read meets a generation its
	// cache has not seen. The traced pass puts a span around every other
	// block of requests and leaves a quarter of its time to the
	// layer-by-layer replay: at 110 ms a batch and its reads the HTTP phase
	// must hold the 100 batches a p90 with ten samples beyond it rests on
	// (it holds ~135), while the replay's medians need only a few dozen.
	span := r.budget()
	if r.traced {
		span = r.budget() * 3 / 4
	}
	phase := r.tr.start("http-load", "bench", 0, 0)
	wr.log = writeLog{last: wr.log.last}
	rd := &reader{ls: ls, tr: r.tr, parent: phase, client: 1,
		gen: newRequestGen(r.seed, 0, r.sz.Companies, r.sz.HotKeys, r.sz.HotShare)}
	before := server.CountersSnapshot()
	start := time.Now()
	deadline := start.Add(span)
	var werr error
	for i := 0; (i < tracedFloor(r.tr) || time.Now().Before(deadline)) && werr == nil; i++ {
		werr = wr.batch(r.tr, phase)
		for k := 0; k < r.sz.ReadsPerBatch && werr == nil; k++ {
			rd.one()
		}
	}
	wall := time.Since(start)
	reads := rd.log
	r.tr.end(phase)
	after := server.CountersSnapshot()
	measured := wr.log
	r.attempted += reads.ok + reads.failed + measured.acked + measured.failed + len(measured.compactMS)
	r.failed += reads.failed + measured.failed
	if werr != nil {
		return fmt.Errorf("writer: %w", werr)
	}
	r.check("none-rejected", after.Rejected == before.Rejected, "%d requests answered 429", after.Rejected-before.Rejected)
	r.resources(shape.Edges, snapBytes)

	// Bring the log to a fixed debt before stopping, so that every run
	// recovers the same amount of work: compact, then exactly
	// RecoveryBatches more batches on top of the compacted generation.
	if err := wr.compact(nil, 0); err != nil {
		return err
	}
	wr.compactEvery = 1 << 30
	for i := 0; i < r.sz.RecoveryBatches; i++ {
		if err := wr.batch(nil, 0); err != nil {
			return err
		}
	}
	last := wr.log.last
	stopped = true
	if err := ls.stop(); err != nil {
		return err
	}
	// Nothing of the stopped server stays live under the recoveries, or how
	// much it held would set their collector's pace.
	ls, wr = nil, nil

	var replayRecords int
	if r.traced {
		id := r.tr.start("wal.Replay", "wal", 0, 0)
		rec, err := wal.Replay(walDir)
		r.tr.end(id)
		if err != nil {
			return err
		}
		replayRecords = len(rec.Records)
	}

	// Recovery: a new server on the used WAL directory, to its first answer.
	// The first answer is always to a point query: which kind a seed's stream
	// happens to open with would otherwise move the recovery by a scan's cost.
	firstGen := newRequestGen(r.seed, 2000, r.sz.Companies, r.sz.HotKeys, r.sz.HotShare)
	first := firstGen.next()
	for first.Kind != kindPoint {
		first = firstGen.next()
	}
	var recoveryMS []float64
	for rep := 0; rep < r.sz.RecoveryReps; rep++ {
		// From a collected heap, like every repetition: how much garbage the
		// stopped server left would otherwise set the collector's pace.
		runtime.GC()
		start := time.Now()
		id := r.tr.start("server.New->first 200 (recovery)", "server", 0, rep)
		rs, err := startServer(cfg(), 1)
		if err != nil {
			r.op(false)
			return fmt.Errorf("recovery %d: %w", rep, err)
		}
		rp, err := rs.post("/query", first.body())
		r.tr.end(id)
		recoveryMS = append(recoveryMS, ms(time.Since(start)))
		ok := err == nil && rp.status == http.StatusOK
		r.op(ok)

		var health struct{ Nodes, Edges int }
		hp, herr := rs.get("/healthz")
		if herr == nil {
			herr = json.Unmarshal(hp.body, &health)
		}
		next := rs.srv.WALStats().NextSeq
		r.check("recovered-equals-last-ack", herr == nil && health.Nodes == last.Nodes && health.Edges == last.Edges && next == last.Seq+1,
			"recovery %d: %d nodes %d edges next seq %d (%v); last ack %d nodes %d edges seq %d",
			rep, health.Nodes, health.Edges, next, herr, last.Nodes, last.Edges, last.Seq)
		if err := rs.stop(); err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("recovery %d: first query status %d, %v", rep, rp.status, err)
		}
	}

	if !r.traced {
		r.sample("op_ms", measured.mutateMS, quiet)
		r.sample("aux_ms", recoveryMS, quiet)
		return nil
	}

	r.sample("server.read_p50_ms", reads.allMS, median)
	r.sample("server.read_tail_ms", reads.allMS, r.tail)
	r.sample("server.miss_p50_ms", concat(reads.missMS, reads.plainMissMS), median)
	r.set("bench.work_per_s", float64(reads.ok+measured.acked)/secs(wall))
	batches := concat(measured.mutateMS, measured.plainMS)
	r.sample("server.mutate_p50_ms", batches, median)
	r.sample("server.mutate_tail_ms", batches, r.tail)
	r.set("server.mutate_incremental_ratio", float64(measured.incremental)/float64(measured.acked))
	r.sample("server.compact_s", scale(measured.compactMS, 1e-3), median)
	r.set("server.compact_count", float64(len(measured.compactMS)))
	r.sample("overlay.delta_size", measured.deltaSizes, median)
	reportServerCounters(r, before, after)
	r.sample("wal.replay_s", spanSecs(r.tr.named("wal.Replay")), median)
	r.set("wal.replay_records", float64(replayRecords))
	r.overhead(measured.mutateMS, measured.plainMS)
	return replayWrites(r, path, shape, median(batches))
}

// replayWrites takes the write path apart on a private copy of the serving
// state: the same batch stream applied to a cloned overlay, folded into the
// fact database, and appended to a private log under the same fsync policy
// — the three layer calls Server.Mutate makes — then one compaction of the
// overlay they leave behind.
func replayWrites(r *run, path string, shape graphShape, mutateMS float64) error {
	tr := r.tr
	sub, err := openSubstrate(r, path)
	if err != nil {
		return err
	}
	defer sub.sf.Close() //nolint:errcheck // read-only mapping
	reportReadyLayers(r)

	pol, every, err := wal.ParseSyncPolicy(r.sz.WALSync)
	if err != nil {
		return err
	}
	logDir := filepath.Join(r.workDir, "wal-replay")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	log, _, err := wal.Open(logDir, wal.Options{Sync: pol, SyncEvery: every})
	if err != nil {
		return err
	}
	defer log.Close() //nolint:errcheck // scratch log

	gen := newMutationGen(r.seed, shape)
	ov := overlay.New(sub.sf.Frozen)
	db := sub.db
	var total []float64
	var payloadBytes int64
	deadline := time.Now().Add(r.budget() / 4)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		ops, ok := gen.batch()
		if !ok {
			break
		}
		start := time.Now()
		root := tr.start("mutate", "bench", 0, rep)
		id := tr.start("overlay.Apply", "overlay", root, rep)
		next := ov.Clone()
		diff, err := next.Apply(ops)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replaying batch %d: %w", rep, err)
		}
		id = tr.start("metalog.ApplyFactsDelta", "metalog", root, rep)
		ndb, incremental := metalog.ApplyFactsDelta(db, sub.cat, diff)
		tr.end(id)
		if !incremental {
			return fmt.Errorf("replaying batch %d: left the incremental fact path", rep)
		}
		payload, err := overlay.EncodeOps(ops)
		if err != nil {
			return err
		}
		id = tr.start("wal.Append", "wal", root, rep)
		_, err = log.Append(payload)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replaying batch %d: %w", rep, err)
		}
		total = append(total, ms(time.Since(start)))
		payloadBytes += int64(len(payload))
		ov, db = next, ndb
		r.op(true)
	}
	id := tr.start("overlay.Compact", "overlay", 0, 0)
	_, err = ov.Compact()
	tr.end(id)
	if err != nil {
		return err
	}

	st := log.Stats()
	r.sample("overlay.apply_ms", tr.selfByRep("overlay.Apply"), median)
	r.sample("metalog.facts_delta_ms", tr.selfByRep("metalog.ApplyFactsDelta"), median)
	r.sample("wal.append_ms", tr.selfByRep("wal.Append"), median)
	r.set("wal.syncs_per_batch", ratio(st.Syncs, st.Appended))
	r.set("wal.bytes_per_op_byte", ratio(st.Bytes, payloadBytes))
	r.sample("overlay.compact_s", spanSecs(tr.named("overlay.Compact")), median)
	r.set("server.overhead_ms", mutateMS-median(total))
	r.set("bench.attributed_pct", 100*median(total)/mutateMS)
	return nil
}
