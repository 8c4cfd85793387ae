// The two root benchmarks `make test-race` runs for one iteration each, so
// the concurrent statistics tasks and the sharded fixpoint run under the race
// detector at benchmark scale. Their output is never recorded: every timing
// the documents quote comes from bench/ (`make bench`, `make bench-pairs`).
//
//	BenchmarkE1GraphStats   §2.1 statistics, worker sweep
//	BenchmarkE11DescFrom    Example 4.3/4.4 path-pattern reasoning, worker sweep
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/graphstats"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

var statsScales = []int{500, 2000, 8000}

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
	for _, n := range statsScales {
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
