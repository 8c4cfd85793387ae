package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

// sigmaControl is the E14 intensional component: the compaction of the
// HOLDS/BELONGS_TO decoupling into OWNS, then company control over it.
const sigmaControl = `
	(p: Person) [: HOLDS; right: "ownership", percentage: hp] (s: Share; percentage: sp)
		[: BELONGS_TO] (y: Business),
		q = hp * sp, w = sum(q)
		-> (p) [o: OWNS; percentage: w] (y).
	(x: Business) -> (x) [c: CONTROLS] (x).
	(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
		v = sum(w, <z>), v > 0.5
		-> (x) [c: CONTROLS] (y).
`

func engineOpts() vadalog.Options { return vadalog.Options{Workers: engineWorkers} }

// derivedCounts tallies a flush's derived edges by type.
func derivedCounts(d *instance.Derived) map[string]int {
	out := map[string]int{}
	for _, e := range d.NewEdges {
		out[e.Type]++
	}
	return out
}

func runMaterialize(r *run) error {
	var (
		topo  *fingraph.Topology
		data  *pg.Graph
		sigma *metalog.Program
	)
	materialize := func() (*instance.Dictionary, *instance.Result, time.Duration, error) {
		d, err := instance.NewDictionary(supermodel.CompanyKG())
		if err != nil {
			return nil, nil, 0, err
		}
		// Every rep starts from a collected heap, so that what one rep leaves
		// behind is not the next one's garbage to trace.
		runtime.GC()
		start := time.Now()
		res, err := instance.Materialize(d, instance.PGSource{Data: data}, sigma, 1, engineOpts())
		return d, res, time.Since(start), err
	}
	_, err := r.setup(func() (func(), error) {
		cfg := fingraph.DefaultConfig(r.sz.Companies, r.sz.ShapeSeed)
		cfg.PyramidFraction = r.sz.PyramidFraction
		cfg.PyramidDepth = r.sz.PyramidDepth
		gen := r.tr.start("fingraph.generate", "fingraph", 0, 0)
		topo = fingraph.GenerateTopology(cfg)
		// The shape is pinned; the run seed drives what CompanyKG renders on
		// top of it (names, dates, capital, event participants).
		topo.Config.Seed = r.seed
		data = topo.CompanyKG()
		r.tr.end(gen)
		var err error
		if sigma, err = metalog.Parse(sigmaControl); err != nil {
			return nil, err
		}
		// Warm-up: the first materialization in a process pays for page
		// faults and heap growth the later ones do not.
		_, _, _, err = materialize()
		return func() {}, err
	})
	if err != nil {
		return err
	}
	if r.traced {
		r.sample("fingraph.generate_s", spanSecs(r.tr.named("fingraph.generate")), median)
	}

	// Oracle: the native worklist twin over the same topology. Σ derives one
	// CONTROLS self-pair per business; the native twin omits them.
	native := len(finance.NativeControl(finance.BuildOwnership(topo), true))

	var (
		opMS, auxMS   []float64
		composedMS    []float64
		first         map[string]int
		lastDict      *instance.Dictionary
		lastRes       *instance.Result
		deadline      = time.Now().Add(r.budget())
		fixpointTotal vadalog.RunStats
	)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		d, res, wall, err := materialize()
		r.op(err == nil)
		if err != nil {
			return fmt.Errorf("materialize rep %d: %w", rep, err)
		}
		opMS = append(opMS, ms(wall))
		fixpointTotal = res.RunStats
		lastDict, lastRes = d, res

		counts := derivedCounts(res.Derived)
		if first == nil {
			first = counts
			r.check("controls-equals-native", counts["CONTROLS"]-topo.Companies == native,
				"CONTROLS minus self-pairs = %d, NativeControl = %d", counts["CONTROLS"]-topo.Companies, native)
		} else {
			r.check("derived-counts-stable", counts["OWNS"] == first["OWNS"] && counts["CONTROLS"] == first["CONTROLS"],
				"rep %d derived %v, rep 0 derived %v", rep, counts, first)
		}

		target := data.Clone()
		start := time.Now()
		_, err = res.ApplyToPG(target)
		r.op(err == nil)
		if err != nil {
			return fmt.Errorf("ApplyToPG rep %d: %w", rep, err)
		}
		auxMS = append(auxMS, ms(time.Since(start)))

		if r.traced {
			// Nothing of the opaque rep stays live under the composed one,
			// or its collector would have twice the heap to mark.
			lastDict, lastRes, res = nil, nil, nil
			wall, err := materializeComposed(r, data, sigma, rep)
			if err != nil {
				return fmt.Errorf("composed materialize rep %d: %w", rep, err)
			}
			composedMS = append(composedMS, ms(wall))
		}
	}

	r.resources(data.NumEdges(), 0)
	runtime.KeepAlive(lastDict)
	runtime.KeepAlive(lastRes)

	if !r.traced {
		r.sample("op_ms", opMS, quiet)
		r.sample("aux_ms", auxMS, quiet)
		return nil
	}

	tr := r.tr
	toS := func(xs []float64) []float64 { return scale(xs, 1e-3) }
	load, views := tr.selfByRep("instance.LoadPG"), tr.selfByRep("instance.InputViews")
	fix, flush := tr.selfByRep("vadalog.RunInPlace"), tr.selfByRep("instance.Flush")
	r.sample("instance.load_s", toS(load), median)
	r.sample("instance.views_s", toS(views), median)
	r.sample("instance.flush_s", toS(flush), median)
	r.sample("vadalog.fixpoint_s", toS(fix), median)
	r.sample("metalog.translate_ms", tr.selfByRep("metalog.Translate"), median)
	r.sample("instance.flush_alloc_mb", spanAllocMB(tr.named("instance.Flush")), median)
	r.set("instance.reason_io_ratio", median(fix)/(median(load)+median(views)+median(flush)))
	r.set("vadalog.rounds", float64(fixpointTotal.Rounds))
	r.set("vadalog.derived", float64(fixpointTotal.FactsDerived))
	r.set("bench.work_per_s", float64(fixpointTotal.FactsDerived)/(median(opMS)/1000))
	named := median(load) + median(views) + median(fix) + median(flush) + median(tr.selfByRep("metalog.Translate"))
	r.set("bench.attributed_pct", 100*named/median(composedMS))
	r.overhead(composedMS, opMS)
	return nil
}

// materializeComposed is instance.Materialize taken apart: the same layer
// calls in the same order under the same savepoint, each inside a span.
func materializeComposed(r *run, data pg.View, sigma *metalog.Program, rep int) (time.Duration, error) {
	d, err := instance.NewDictionary(supermodel.CompanyKG())
	if err != nil {
		return 0, err
	}
	tr := r.tr
	runtime.GC()
	start := time.Now()
	root := tr.start("materialize", "bench", 0, rep)
	defer tr.end(root)

	id := tr.start("metalog.Translate", "metalog", root, rep)
	cat := instance.CatalogFromSchema(d.Schema)
	tl, err := metalog.Translate(sigma, cat)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	snap := d.Graph.Begin()
	defer snap.Commit()

	id = tr.start("instance.LoadPG", "instance", root, rep)
	loaded, err := d.LoadPG(data, 1)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.start("instance.InputViews", "instance", root, rep)
	db, err := loaded.InputViews(cat)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.start("vadalog.RunInPlace", "vadalog", root, rep)
	res, err := vadalog.RunInPlace(tl.Program, db, engineOpts())
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.start("instance.Flush", "instance", root, rep)
	_, err = loaded.Flush(res.DB, tl, cat)
	tr.end(id)
	return time.Since(start), err
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// spanValues reads one number off each span.
func spanValues(spans []span, f func(span) float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = f(s)
	}
	return out
}

func spanSecs(spans []span) []float64 {
	return spanValues(spans, func(s span) float64 { return secs(s.dur()) })
}

func spanAllocMB(spans []span) []float64 {
	return spanValues(spans, func(s span) float64 { return mb(float64(s.AllocBytes)) })
}

func spanResidentMB(spans []span) []float64 {
	return spanValues(spans, func(s span) float64 { return mb(float64(s.ResidentBytes)) })
}
