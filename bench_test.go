// Microbenchmarks with no successor in the bench/ spine and no kgbench
// experiment that prints the same table. They are unrecorded and ungated:
// nothing commits their output, and every number the documents quote comes
// from bench/ (`make bench`, `make bench-pairs`) or is printed by kgbench.
//
//	BenchmarkE1GraphStats          §2.1 statistics, worker sweep (make test-race runs it)
//	BenchmarkE11DescFrom           Example 4.3/4.4 path-pattern reasoning (make test-race runs it)
//	BenchmarkE17TraceOverhead      run-trace instrumentation cost on E11
//	BenchmarkMTVCompile            MetaLog-to-Vadalog compilation of the PG mapping
//	BenchmarkGSLRoundTrip          dictionary round trip of the Figure 4 design
//	BenchmarkAblationIncremental   insert-only propagation vs recomputation (A4)
//
// Use cmd/kgbench for the paper's tables at any scale.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/graphstats"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

var controlScales = []int{500, 2000, 8000}

// benchWorkerCounts returns the worker counts the parallel-evaluation
// benchmarks sweep: sequential, two workers, and all CPUs (deduplicated, so
// on a dual-core machine the sweep is just 1 and 2).
func benchWorkerCounts() []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range []int{1, 2, runtime.NumCPU()} {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkE1GraphStats computes the Section 2.1 statistics table, sweeping
// the worker count of the parallel statistics computation.
func BenchmarkE1GraphStats(b *testing.B) {
	for _, n := range controlScales {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, 42))
		g := topo.Shareholding()
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("companies=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := graphstats.ComputeWorkers(g, w)
					if s.Nodes == 0 {
						b.Fatal("empty stats")
					}
				}
			})
		}
	}
}

// controlDatabase extracts the ownership relations the control program
// reads from a generated topology.
func controlDatabase(topo *fingraph.Topology) *vadalog.Database {
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
	return db
}

// descFromSchema builds a generalization hierarchy of the given depth where
// every class has branch subclasses (branch=1 reproduces the original linear
// chain; branch>1 yields the wide trees on which the parallel fixpoint has
// enough per-round work to shard).
func descFromSchema(b *testing.B, depth, branch int) *pg.Graph {
	b.Helper()
	schema := supermodel.NewSchema("deep", 1)
	schema.MustAddNode("N0", false, supermodel.Attr("id", supermodel.String).ID())
	level := []string{"N0"}
	id := 0
	for d := 1; d <= depth; d++ {
		var next []string
		for _, parent := range level {
			children := make([]string, branch)
			for c := range children {
				id++
				children[c] = fmt.Sprintf("N%d", id)
				schema.MustAddNode(children[c], false)
			}
			schema.MustAddGeneralization("", parent, children, false, true)
			next = append(next, children...)
		}
		level = next
	}
	dict := supermodel.NewDictionary()
	if err := supermodel.ToDictionary(schema, dict); err != nil {
		b.Fatal(err)
	}
	return dict
}

// BenchmarkE11DescFrom runs the Example 4.3 path-pattern program over
// generalization hierarchies of growing size, sweeping the fixpoint worker
// count at every shape. The largest shape (a branching tree of ~5.5k
// classes) is the one whose per-round deltas are wide enough for the
// parallel engine to shard; the linear chains stay below the sharding
// threshold and measure the parallel mode's overhead instead.
func BenchmarkE11DescFrom(b *testing.B) {
	shapes := []struct {
		name          string
		depth, branch int
	}{
		{"depth=4", 4, 1},
		{"depth=16", 16, 1},
		{"depth=64", 64, 1},
		{"depth=6/branch=4", 6, 4},
	}
	prog := metalog.MustParse(`(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])+ (y: SM_Node) -> (x) [w: DESCFROM] (y).`)
	for _, sh := range shapes {
		dict := descFromSchema(b, sh.depth, sh.branch)
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					work := dict.Clone()
					b.StartTimer()
					if _, err := metalog.Reason(context.Background(), prog, work, vadalog.Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE17TraceOverhead measures the cost of run-trace instrumentation
// (per-rule counters plus per-eval timing) on the widest E11 shape, with
// and without a trace attached. The target recorded in EXPERIMENTS.md is
// under 5% overhead for the traced variant.
func BenchmarkE17TraceOverhead(b *testing.B) {
	prog := metalog.MustParse(`(x: SM_Node) ([: SM_CHILD]- . [: SM_PARENT])+ (y: SM_Node) -> (x) [w: DESCFROM] (y).`)
	dict := descFromSchema(b, 6, 4)
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("traced=%v", traced), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := dict.Clone()
				opts := vadalog.Options{Workers: runtime.NumCPU()}
				if traced {
					opts.Trace = obs.NewTrace()
				}
				b.StartTimer()
				if _, err := metalog.Reason(context.Background(), prog, work, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMTVCompile measures MetaLog-to-Vadalog compilation of the full
// PG mapping program (the largest program in the repository).
func BenchmarkMTVCompile(b *testing.B) {
	m := models.PGMapping(123, 124, 125, "multi-label")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := metalog.Parse(m.Eliminate)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := metalog.Translate(prog, metalog.NewCatalog()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGSLRoundTrip measures GSL parse+serialize of the Figure 4 design.
func BenchmarkGSLRoundTrip(b *testing.B) {
	kgSchema := supermodel.CompanyKG()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dict := supermodel.NewDictionary()
		if err := supermodel.ToDictionary(kgSchema, dict); err != nil {
			b.Fatal(err)
		}
		if _, err := supermodel.FromDictionary(dict, kgSchema.OID, kgSchema.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIncremental compares incremental propagation of one new
// stake against full recomputation of the control program (the maintenance
// extension of DESIGN.md; ablation A4).
func BenchmarkAblationIncremental(b *testing.B) {
	prog := vadalog.MustParse(finance.ControlVadalog())
	for _, n := range []int{2000, 8000} {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(n, 42))
		base := controlDatabase(topo)
		b.Run(fmt.Sprintf("recompute/companies=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := base.Clone()
				db.MustAddFact("owns", value.IntV(0), value.IntV(1), value.FloatV(0.6))
				if _, err := vadalog.Run(prog, db, vadalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("incremental/companies=%d", n), func(b *testing.B) {
			b.StopTimer()
			inc, err := vadalog.NewIncremental(context.Background(), prog, base.Clone(), vadalog.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				// A fresh stake each iteration (weights vary so facts are new).
				if err := inc.Add("owns", value.IntV(0), value.IntV(1), value.FloatV(0.5+float64(i%1000)/1e7)); err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Propagate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
