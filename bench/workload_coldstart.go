package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/vadalog"
)

func runColdStart(r *run) error {
	// Cost here follows the graph's size alone, which barely moves between
	// seeds, so the run seed draws the graph itself.
	cfg := fingraph.DefaultConfig(r.sz.Companies, r.seed)
	path := filepath.Join(r.workDir, "cold.snap")

	var (
		first    request
		expected []metalog.QueryRow
	)
	_, err := r.setup(func() (func(), error) {
		// The oracle: the same graph frozen in memory, a seeded company that
		// owns something, and metalog.Query's answer for it.
		ld := pg.NewBulkLoader(procs)
		st, err := fingraph.StreamTopology(cfg, fingraph.StreamOptions{}, ld)
		if err != nil {
			return nil, err
		}
		frozen, err := ld.Finish()
		if err != nil {
			return nil, err
		}
		shape := graphShape{Persons: st.Persons, Companies: st.Companies, Edges: st.Edges}
		rng := rand.New(rand.NewSource(r.seed*4000037 + 3))
		key := rng.Intn(shape.Companies)
		for tries := 0; frozen.OutDegree(shape.companyOID(key)) == 0 && tries < 10*shape.Companies; tries++ {
			key = rng.Intn(shape.Companies)
		}
		first = request{Kind: kindPoint, Query: pointQuery(companyCode(key))}
		if expected, err = metalog.Query(frozen, first.Query, vadalog.Options{Workers: 1}); err != nil {
			return nil, err
		}
		// Warm-up: one whole cold start. Within a process only the first
		// pays for page faults, heap growth and the listener path.
		if _, _, err := ingest(cfg, path, nil, 0, 0); err != nil {
			return nil, err
		}
		ls, err := startServer(serveConfig(r.sz, path), 1)
		if err != nil {
			return nil, err
		}
		_, qerr := ls.post("/query", first.body())
		if err := ls.stop(); err != nil {
			return nil, err
		}
		return func() {}, qerr
	})
	if err != nil {
		return err
	}
	runtime.GC()

	var (
		readyMS, ingestMS, resident, edgesPerS []float64
		plainReadyMS                           []float64
		firstSHA                               string
		snapBytes                              int64
		shape                                  graphShape
		deadline                               = time.Now().Add(r.budget())
	)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		// In the traced pass odd reps run without spans: they price the span
		// bookkeeping and give the opaque time-to-ready the composed one is
		// set against.
		tr := r.tr
		if rep%2 == 1 {
			tr = nil
		}
		start := time.Now()
		root := tr.start("ingest", "bench", 0, rep)
		var err error
		shape, snapBytes, err = ingest(cfg, path, tr, root, rep)
		tr.end(root)
		ingestWall := time.Since(start)
		r.op(err == nil)
		if err != nil {
			return fmt.Errorf("ingest rep %d: %w", rep, err)
		}
		sha, err := fileSHA256(path)
		if err != nil {
			return err
		}
		if firstSHA == "" {
			firstSHA = sha
		}
		r.check("snapshot-sha-stable", sha == firstSHA, "rep %d snapshot %s, rep 0 %s", rep, sha, firstSHA)

		start = time.Now()
		id := tr.start("server.New->first 200", "server", 0, rep)
		ls, err := startServer(serveConfig(r.sz, path), 1)
		if err != nil {
			r.op(false)
			return fmt.Errorf("server.New rep %d: %w", rep, err)
		}
		rp, err := ls.post("/query", first.body())
		tr.end(id)
		readyWall := time.Since(start)
		ok := err == nil && rp.status == http.StatusOK
		r.op(ok)
		if !ok {
			ls.stop() //nolint:errcheck // already failing
			return fmt.Errorf("first query rep %d: status %d, %v", rep, rp.status, err)
		}
		merr := answerMatches(rp.body, expected)
		r.check("first-answer-equals-metalog.Query", merr == nil, "rep %d: %v", rep, merr)

		// Resident cost while serving: live heap after a collection plus the
		// mapped snapshot, per edge.
		resident = append(resident, (float64(heapAfterGC())+float64(snapBytes))/float64(shape.Edges))
		if err := ls.stop(); err != nil {
			return err
		}
		if tr != nil {
			// After the opaque start, so that what the composed one leaves
			// behind is never the server's garbage to trace. Only the first
			// composed rep stops to collect the heap around the structures
			// it builds; the others keep their garbage on the clock, as
			// server.New does.
			if err := readyComposed(r, path, first, rep, rep == 0); err != nil {
				return fmt.Errorf("composed cold start rep %d: %w", rep, err)
			}
		}
		if err := os.Remove(path); err != nil {
			return err
		}

		if r.traced && tr == nil {
			plainReadyMS = append(plainReadyMS, ms(readyWall))
		} else {
			readyMS = append(readyMS, ms(readyWall))
		}
		ingestMS = append(ingestMS, ms(ingestWall))
		edgesPerS = append(edgesPerS, float64(shape.Edges)/secs(ingestWall))
	}

	if !r.traced {
		r.set("peak_rss_mb", peakRSSMB())
		r.sample("resident_b_per_edge", resident, median)
		r.sample("op_ms", readyMS, quiet)
		r.sample("aux_ms", ingestMS, quiet)
		return nil
	}

	tr := r.tr
	toS := func(xs []float64) []float64 { return scale(xs, 1e-3) }
	r.sample("fingraph.stream_s", toS(tr.selfByRep("fingraph.StreamTopology")), median)
	r.sample("pg.bulk_add_s", toS(tr.selfByRep("pg.BulkLoader.Add")), median)
	r.sample("pg.bulk_finish_s", toS(tr.selfByRep("pg.BulkLoader.Finish")), median)
	r.sample("pg.ingest_edges_per_s", edgesPerS, median)
	r.sample("snapfile.write_s", toS(tr.selfByRep("snapfile.WriteFile")), median)
	r.set("snapfile.bytes_per_edge", float64(snapBytes)/float64(shape.Edges))
	r.set("bench.work_per_s", float64(shape.Edges)/((median(ingestMS)+median(plainReadyMS))/1000))
	named := reportReadyLayers(r)
	r.set("server.ready_residual_s", (median(plainReadyMS)-named)/1000)
	r.set("bench.attributed_pct", 100*named/median(plainReadyMS))
	r.overhead(readyMS, plainReadyMS)
	return nil
}

// readyComposed is the path from snapshot file to first answer taken apart:
// what server.New and the first /query do, as the layer calls they consist
// of, each inside a span. What it leaves out — the listener, HTTP, JSON —
// is server.ready_residual_s.
func readyComposed(r *run, path string, first request, rep int, resident bool) error {
	tr := r.tr
	start, end := tr.start, tr.end
	if resident {
		start, end = tr.startResident, tr.endResident
	}
	root := tr.start("ready", "bench", 0, rep)
	defer tr.end(root)

	id := tr.start("snapfile.Open", "snapfile", root, rep)
	sf, err := snapfile.Open(path)
	tr.end(id)
	if err != nil {
		return err
	}
	defer sf.Close() //nolint:errcheck // read-only mapping

	id = start("metalog.FromGraph", "metalog", root, rep)
	cat := metalog.FromGraph(sf.Frozen)
	end(id)

	id = start("metalog.ExtractFacts", "metalog", root, rep)
	db, err := metalog.ExtractFacts(sf.Frozen, cat)
	end(id)
	if err != nil {
		return err
	}
	id = tr.start("metalog.ComputePlanStats", "plan", root, rep)
	stats := metalog.ComputePlanStats(sf.Frozen, cat)
	tr.end(id)

	id = tr.start("first-query", "bench", root, rep)
	prep, err := metalog.PrepareQuery(cat.Clone(), first.Query, stats)
	if err == nil {
		_, err = prep.QueryDB(context.Background(), db, vadalog.Options{Workers: 1})
	}
	tr.end(id)
	if err != nil {
		return err
	}
	r.set("metalog.extract_facts", float64(db.TotalFacts()))
	return nil
}

// reportReadyLayers turns the "ready" spans into the cold-start layer
// metrics and returns the milliseconds they account for together.
func reportReadyLayers(r *run) float64 {
	tr := r.tr
	toS := func(xs []float64) []float64 { return scale(xs, 1e-3) }
	open := tr.selfByRep("snapfile.Open")
	catalog := tr.selfByRep("metalog.FromGraph")
	extract := tr.selfByRep("metalog.ExtractFacts")
	stats := tr.selfByRep("metalog.ComputePlanStats")
	firstQ := tr.selfByRep("first-query")
	r.sample("snapfile.open_ms", open, median)
	r.sample("metalog.catalog_s", toS(catalog), median)
	r.sample("metalog.catalog_resident_mb", spanResidentMB(tr.named("metalog.FromGraph")), maxOf)
	r.sample("metalog.extract_s", toS(extract), median)
	r.sample("metalog.extract_resident_mb", spanResidentMB(tr.named("metalog.ExtractFacts")), maxOf)
	r.sample("plan.stats_s", toS(stats), median)
	named := median(open) + median(catalog) + median(extract) + median(stats)
	// Only the cold start asks a first query; the serve workloads open the
	// same substrate without one.
	if len(firstQ) > 0 {
		r.sample("server.first_query_ms", firstQ, median)
		named += median(firstQ)
	}
	return named
}
