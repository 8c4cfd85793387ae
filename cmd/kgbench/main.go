// Command kgbench regenerates the paper's evaluation artifacts from one
// binary: the Section 2.1 statistics table, the Figure 6 / Figure 8
// translation outputs, the company-control reasoning sweep (Examples
// 4.1/4.2), the Algorithm 2 phase breakdown of Section 6, and the ablation
// tables of DESIGN.md. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	kgbench -experiment stats   -scales 1000,10000,50000
//	kgbench -experiment control -scales 1000,5000,20000
//	kgbench -experiment phases  -scales 500,2000,8000
//	kgbench -experiment figures
//	kgbench -experiment ablation -scales 1000,5000
//	kgbench -experiment closelinks -scales 500,2000
//	kgbench -experiment scaling -scales 2000,8000 -workers 8
//	kgbench -experiment all
//
// -workers sets the parallelism of the reasoning fixpoint and of the
// statistics computation (default: all CPUs; see the "Parallel evaluation"
// sections of DESIGN.md and EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/graphstats"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// engTimeout, engTrace, and engOnFault hold the -timeout / -trace /
// -on-fault settings; engineOpts threads them into every reasoning run an
// experiment performs.
var (
	engTimeout time.Duration
	engTrace   *obs.Trace
	engOnFault vadalog.FaultPolicy
)

// engineOpts builds the vadalog options for one reasoning run under the
// global observability/cancellation/robustness flags.
func engineOpts(workers int) vadalog.Options {
	return vadalog.Options{Workers: workers, Timeout: engTimeout, Trace: engTrace, OnFault: engOnFault}
}

func main() {
	experiment := flag.String("experiment", "all", "stats, control, phases, figures, ablation, closelinks, groups, scaling, or all")
	scales := flag.String("scales", "1000,5000,20000", "comma-separated company counts")
	seed := flag.Int64("seed", 42, "random seed")
	workers := flag.Int("workers", runtime.NumCPU(), "goroutines for reasoning and statistics (1 = sequential)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound per reasoning run (0 = none)")
	traceFile := flag.String("trace", "", "write the JSON run trace of every reasoning run to this file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	// kgbench generates its data in memory, so there is nothing for
	// -retries to retry; it gets only -on-fault and the hidden -chaos.
	ff := cli.RegisterFaultFlags(flag.CommandLine, false)
	flag.Parse()
	onFault, done, err := ff.Apply(os.Stdout)
	if err != nil {
		fatal(err)
	}
	if done {
		return
	}
	engOnFault = onFault
	engTimeout = *timeout
	if *traceFile != "" {
		engTrace = obs.NewTrace()
		defer func() {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kgbench:", err)
				return
			}
			defer f.Close()
			if err := engTrace.WriteJSONTimings(f); err != nil {
				fmt.Fprintln(os.Stderr, "kgbench:", err)
			}
		}()
	}
	if *pprofAddr != "" {
		if err := obs.ServeDebug(*pprofAddr); err != nil {
			fatal(err)
		}
	}

	var ns []int
	for _, s := range strings.Split(*scales, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		ns = append(ns, n)
	}

	run := map[string]func([]int, int64, int){
		"stats":      runStats,
		"control":    runControl,
		"phases":     runPhases,
		"figures":    func([]int, int64, int) { runFigures() },
		"ablation":   runAblation,
		"closelinks": runCloseLinks,
		"groups":     runGroups,
		"scaling":    runScaling,
	}
	if *experiment == "all" {
		for _, name := range []string{"stats", "control", "phases", "figures", "ablation", "closelinks", "groups", "scaling"} {
			fmt.Printf("==== %s ====\n", name)
			run[name](ns, *seed, *workers)
			fmt.Println()
		}
		return
	}
	f, ok := run[*experiment]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", *experiment))
	}
	f(ns, *seed, *workers)
}

// runStats is experiment E1: the Section 2.1 statistics table across scales.
func runStats(scales []int, seed int64, workers int) {
	fmt.Println("E1 — Section 2.1 graph statistics (synthetic shareholding graph)")
	fmt.Println("paper (11.97M nodes): 11.96M SCCs (avg 1, max 1.9k); >1.3M WCCs (avg 9, max >6M);")
	fmt.Println("avg in-deg 3.12, out-deg 1.78; max in-deg 16.9k, out-deg 5.1k; clustering 0.0086")
	for _, n := range scales {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, seed))
		g := topo.Shareholding()
		start := time.Now()
		s := graphstats.ComputeWorkers(g, workers)
		fmt.Printf("\n-- companies=%d (computed in %v)\n%s", n, time.Since(start).Round(time.Millisecond), s.Table())
	}
}

// runControl is experiment E10: the control sweep — MetaLog pipeline
// (Example 4.1), plain Vadalog (Example 4.2) and the native baseline.
func runControl(scales []int, seed int64, workers int) {
	fmt.Println("E10 — company control (Examples 4.1/4.2): MetaLog pipeline vs Vadalog vs native")
	fmt.Printf("%-10s %-8s %-8s %-14s %-14s %-14s %-8s\n",
		"companies", "nodes", "edges", "metalog", "vadalog", "native", "pairs")
	for _, n := range scales {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, seed))
		g := topo.Shareholding()
		own := finance.BuildOwnership(topo)

		// MetaLog end to end (translation + load + reason + flush).
		mlStart := time.Now()
		prog, err := metalog.Parse(finance.ControlEntityProgram())
		if err != nil {
			fatal(err)
		}
		mlRes, err := metalog.Reason(context.Background(), prog, g, engineOpts(workers))
		if err != nil {
			fatal(err)
		}
		mlDur := time.Since(mlStart)
		_ = mlRes

		// Plain Vadalog over extracted relations (Example 4.2 layout).
		db := vadalog.NewDatabase()
		for _, e := range own.Entities {
			db.MustAddFact("company", value.IntV(int64(e)))
		}
		for owner, stakes := range own.Out {
			for _, st := range stakes {
				db.MustAddFact("owns", value.IntV(int64(owner)), value.IntV(int64(st.Company)), value.FloatV(st.Pct))
			}
		}
		vStart := time.Now()
		vprog := vadalog.MustParse(finance.ControlVadalog())
		if _, err := vadalog.RunInPlace(vprog, db, engineOpts(workers)); err != nil {
			fatal(err)
		}
		vDur := time.Since(vStart)

		nStart := time.Now()
		pairs := finance.NativeControl(own, false)
		nDur := time.Since(nStart)

		fmt.Printf("%-10d %-8d %-8d %-14v %-14v %-14v %-8d\n",
			n, g.NumNodes(), g.NumEdges(),
			mlDur.Round(time.Microsecond), vDur.Round(time.Microsecond), nDur.Round(time.Microsecond), len(pairs))
	}
}

// runPhases is experiment E14: the Algorithm 2 load / reason / flush
// breakdown of Section 6 (the paper reports ~160 min reasoning vs ~15 min
// loading+flushing on the production KG).
func runPhases(scales []int, seed int64, workers int) {
	fmt.Println("E14 — Algorithm 2 phase breakdown (Section 6): reasoning should dominate load+flush")
	fmt.Printf("%-10s %-10s %-14s %-14s %-14s %-10s\n", "companies", "entities", "load", "reason", "flush", "reason/IO")
	sigma := metalog.MustParse(`
		(p: Person) [: HOLDS; right: "ownership", percentage: hp] (s: Share; percentage: sp)
			[: BELONGS_TO] (y: Business),
			q = hp * sp, w = sum(q)
			-> (p) [o: OWNS; percentage: w] (y).
		(x: Business) -> (x) [c: CONTROLS] (x).
		(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
			v = sum(w, <z>), v > 0.5
			-> (x) [c: CONTROLS] (y).
	`)
	for _, n := range scales {
		// Corporate pyramids (deep majority chains) are what make the
		// production control component expensive; without them the derived
		// relation is small and loading dominates.
		cfg := fingraph.DefaultConfig(n, seed)
		cfg.PyramidFraction = 0.4
		cfg.PyramidDepth = 25
		topo := fingraph.GenerateTopology(cfg)
		data := topo.CompanyKG()
		d, err := instance.NewDictionary(supermodel.CompanyKG())
		if err != nil {
			fatal(err)
		}
		res, err := instance.Materialize(d, instance.PGSource{Data: data}, sigma, 1, engineOpts(workers))
		if err != nil {
			fatal(err)
		}
		io := res.LoadDuration + res.FlushDuration
		ratio := float64(res.ReasonDuration) / float64(io)
		fmt.Printf("%-10d %-10d %-14v %-14v %-14v %-10.2f\n",
			n, len(res.Loaded.Entities),
			res.LoadDuration.Round(time.Microsecond),
			res.ReasonDuration.Round(time.Microsecond),
			res.FlushDuration.Round(time.Microsecond), ratio)
	}
}

// runFigures regenerates Figures 6 and 8 via SSST and prints summaries.
func runFigures() {
	fmt.Println("E6/E8 — SSST translations of the Figure 4 Company KG")
	schema := supermodel.CompanyKG()

	for _, target := range []string{"pg", "relational"} {
		dict := supermodel.NewDictionary()
		if err := supermodel.ToDictionary(schema, dict); err != nil {
			fatal(err)
		}
		m, err := models.SelectMapping(schema.OID, schema.OID+1, schema.OID+2, target, "")
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		res, err := models.Translate(dict, m, engineOpts(0))
		if err != nil {
			fatal(err)
		}
		dur := time.Since(start)
		switch target {
		case "pg":
			view, err := models.ReadPGSchema(res.Dict, m.TargetOID)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\nFigure 6 (PG model, %s strategy, %v): %d node types, %d relationship types\n",
				m.Strategy, dur.Round(time.Millisecond), len(view.Nodes), len(view.Rels))
			for _, nv := range view.Nodes {
				fmt.Printf("  (:%s) %d properties\n", strings.Join(nv.Labels, ":"), len(nv.Properties))
			}
		case "relational":
			view, err := models.ReadRelationalSchema(res.Dict, m.TargetOID)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\nFigure 8 (relational model, %s strategy, %v): %d relations\n",
				m.Strategy, dur.Round(time.Millisecond), len(view.Relations))
			for _, rv := range view.Relations {
				fmt.Printf("  %s(%d fields, %d FKs)\n", rv.Name, len(rv.Fields), len(rv.ForeignKeys))
			}
		}
	}
}

// runAblation covers A1-A3: monotonic vs naive evaluation for control, and
// MetaLog vs native schema translation under both PG strategies.
func runAblation(scales []int, seed int64, workers int) {
	fmt.Println("A2 — semi-naive vs naive fixpoint (control program, Example 4.2 layout)")
	fmt.Printf("%-10s %-14s %-14s %-8s\n", "companies", "semi-naive", "naive", "speedup")
	for _, n := range scales {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, seed))
		own := finance.BuildOwnership(topo)
		db := vadalog.NewDatabase()
		for _, e := range own.Entities {
			db.MustAddFact("company", value.IntV(int64(e)))
		}
		for owner, stakes := range own.Out {
			for _, st := range stakes {
				db.MustAddFact("owns", value.IntV(int64(owner)), value.IntV(int64(st.Company)), value.FloatV(st.Pct))
			}
		}
		prog := vadalog.MustParse(finance.ControlVadalog())
		t0 := time.Now()
		if _, err := vadalog.Run(prog, db, engineOpts(0)); err != nil {
			fatal(err)
		}
		semi := time.Since(t0)
		t1 := time.Now()
		naiveOpts := engineOpts(0)
		naiveOpts.Naive = true
		// The naive pass is the last user of db: hand it over instead of
		// cloning (the semi-naive pass above must keep the defensive copy).
		naiveOpts.OwnInput = true
		if _, err := vadalog.Run(prog, db, naiveOpts); err != nil {
			fatal(err)
		}
		naive := time.Since(t1)
		fmt.Printf("%-10d %-14v %-14v %-8.2fx\n", n,
			semi.Round(time.Microsecond), naive.Round(time.Microsecond),
			float64(naive)/float64(semi))
	}

	fmt.Println("\nA3 — SSST strategies and MetaLog vs native translation (Figure 4 schema)")
	fmt.Printf("%-28s %-14s %-14s\n", "mapping", "metalog", "native")
	schema := supermodel.CompanyKG()
	for _, cfg := range []struct{ model, strategy string }{
		{"pg", "multi-label"}, {"pg", "child-edges"}, {"relational", "table-per-class"},
	} {
		dict := supermodel.NewDictionary()
		if err := supermodel.ToDictionary(schema, dict); err != nil {
			fatal(err)
		}
		m, err := models.SelectMapping(schema.OID, schema.OID+1, schema.OID+2, cfg.model, cfg.strategy)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		if _, err := models.Translate(dict, m, engineOpts(workers)); err != nil {
			fatal(err)
		}
		mlDur := time.Since(t0)
		t1 := time.Now()
		if cfg.model == "pg" {
			if _, err := models.NativeToPG(schema, cfg.strategy); err != nil {
				fatal(err)
			}
		} else {
			models.NativeToRelational(schema)
		}
		natDur := time.Since(t1)
		fmt.Printf("%-28s %-14v %-14v\n", cfg.model+"/"+cfg.strategy,
			mlDur.Round(time.Microsecond), natDur.Round(time.Microsecond))
	}
}

// runCloseLinks sweeps the close-links computation (integrated ownership).
func runCloseLinks(scales []int, seed int64, _ int) {
	fmt.Println("Close links over integrated ownership (ECB threshold 20%)")
	fmt.Printf("%-10s %-10s %-14s %-8s\n", "companies", "entities", "time", "links")
	for _, n := range scales {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, seed))
		own := finance.BuildOwnership(topo)
		t0 := time.Now()
		links := finance.CloseLinks(own, own.Entities, 0.2, 1e-9, 100)
		dur := time.Since(t0)
		fmt.Printf("%-10d %-10d %-14v %-8d\n", n, len(own.Entities), dur.Round(time.Microsecond), len(links))
	}
}

// runGroups sweeps company-group derivation from the control relation.
func runGroups(scales []int, seed int64, _ int) {
	fmt.Println("Company groups (ultimate controllers over the control relation)")
	fmt.Printf("%-10s %-8s %-8s %-10s\n", "companies", "pairs", "groups", "largest")
	for _, n := range scales {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, seed))
		own := finance.BuildOwnership(topo)
		pairs := finance.NativeControl(own, false)
		groups := finance.Groups(pairs)
		largest := 0
		for _, g := range groups {
			if len(g.Controlled) > largest {
				largest = len(g.Controlled)
			}
		}
		fmt.Printf("%-10d %-8d %-8d %-10d\n", n, len(pairs), len(groups), largest)
	}
}

// runScaling is experiment E16: worker-count scaling of the parallel
// fixpoint on a transitive-closure workload (the descendant relation over
// ownership edges). Unlike the control programs, it has no monotonic
// aggregate, so the sharded engine engages; the derived relations are
// checked to be identical across worker counts.
func runScaling(scales []int, seed int64, workers int) {
	fmt.Println("E16 — parallel fixpoint scaling (ownership reachability, no monotonic aggregates)")
	fmt.Printf("%-10s %-8s %-10s %-14s %-14s %-8s\n",
		"companies", "edges", "reachable", "workers=1", fmt.Sprintf("workers=%d", workers), "speedup")
	prog := vadalog.MustParse(`
		reach(X,Y) :- owns(X,Y,P).
		reach(X,Z) :- reach(X,Y), owns(Y,Z,P).
	`)
	for _, n := range scales {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, seed))
		own := finance.BuildOwnership(topo)
		db := vadalog.NewDatabase()
		edges := 0
		for owner, stakes := range own.Out {
			for _, st := range stakes {
				db.MustAddFact("owns", value.IntV(int64(owner)), value.IntV(int64(st.Company)), value.FloatV(st.Pct))
				edges++
			}
		}
		t0 := time.Now()
		seq, err := vadalog.Run(prog, db, engineOpts(1))
		if err != nil {
			fatal(err)
		}
		seqDur := time.Since(t0)
		t1 := time.Now()
		// Last user of db: transfer ownership, skipping the input clone.
		parOpts := engineOpts(workers)
		parOpts.OwnInput = true
		par, err := vadalog.Run(prog, db, parOpts)
		if err != nil {
			fatal(err)
		}
		parDur := time.Since(t1)
		if seq.DB.Count("reach") != par.DB.Count("reach") {
			fatal(fmt.Errorf("worker counts disagree: %d vs %d reach facts",
				seq.DB.Count("reach"), par.DB.Count("reach")))
		}
		fmt.Printf("%-10d %-8d %-10d %-14v %-14v %-8.2fx\n",
			n, edges, par.DB.Count("reach"),
			seqDur.Round(time.Microsecond), parDur.Round(time.Microsecond),
			float64(seqDur)/float64(parDur))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kgbench:", err)
	os.Exit(1)
}
