// Package graphstats computes the topological statistics that Section 2.1 of
// the paper reports for the Bank of Italy shareholding graph: strongly and
// weakly connected components, degree statistics, the average clustering
// coefficient, and a power-law fit of the degree distribution (the paper
// observes a scale-free structure, as common in financial networks).
package graphstats

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pg"
)

// Stats mirrors the figures of Section 2.1.
type Stats struct {
	Nodes int
	Edges int

	SCCCount   int
	SCCAvgSize float64
	SCCMaxSize int

	WCCCount   int
	WCCAvgSize float64
	WCCMaxSize int

	// Degree averages over all nodes (edges/nodes) and over nodes with
	// non-zero degree of the respective direction. The paper's in/out
	// averages (3.12 / 1.78) are computed over active nodes, which is why
	// they differ from edges/nodes.
	AvgInDegreeAll     float64
	AvgOutDegreeAll    float64
	AvgInDegreeActive  float64
	AvgOutDegreeActive float64
	MaxInDegree        int
	MaxOutDegree       int

	AvgClusteringCoefficient float64

	// PowerLawAlpha is the maximum-likelihood exponent of a discrete
	// power-law fitted to the in-degree distribution (degrees >= XMin).
	PowerLawAlpha float64
	PowerLawXMin  int
}

// Compute derives all statistics for the graph, using every available CPU.
// The clustering coefficient is computed on the undirected simple projection
// of the graph; for graphs with more than maxClusteringNodes nodes it is
// estimated on a deterministic sample of nodes, which is standard practice at
// the scale of Section 2.1.
func Compute(g pg.View) Stats { return ComputeWorkers(g, runtime.NumCPU()) }

// ComputeWorkers is Compute with an explicit degree of parallelism. The four
// independent analyses — SCC, WCC, degree statistics with the power-law fit,
// and clustering — run as concurrent tasks over one topology read from the
// view up front, and the clustering sample is additionally sharded across
// workers. The result is identical for every workers value: the topology is
// read-only during computation, the analyses share no other state, and the
// clustering partial sums are reduced in a fixed shard order that does not
// depend on the worker count (the workers == 1 path folds the very same
// shards in the very same order).
func ComputeWorkers(g pg.View, workers int) Stats {
	const maxClusteringNodes = 200_000

	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.Nodes == 0 {
		return s
	}

	t := newTopology(g)
	var sccs, wccs [][]pg.OID
	runTasks(workers,
		func() { sccs = t.scc() },
		func() { wccs = t.wcc() },
		func() {
			var inSum, outSum, inActive, outActive int
			indegrees := t.inDegrees()
			for row, in := range indegrees {
				out := t.outDegree(row)
				inSum += in
				outSum += out
				if in > 0 {
					inActive++
				}
				if out > 0 {
					outActive++
				}
				if in > s.MaxInDegree {
					s.MaxInDegree = in
				}
				if out > s.MaxOutDegree {
					s.MaxOutDegree = out
				}
			}
			s.AvgInDegreeAll = float64(inSum) / float64(s.Nodes)
			s.AvgOutDegreeAll = float64(outSum) / float64(s.Nodes)
			if inActive > 0 {
				s.AvgInDegreeActive = float64(inSum) / float64(inActive)
			}
			if outActive > 0 {
				s.AvgOutDegreeActive = float64(outSum) / float64(outActive)
			}
			s.PowerLawAlpha, s.PowerLawXMin = PowerLawMLE(indegrees)
		},
		func() { s.AvgClusteringCoefficient = t.avgClustering(maxClusteringNodes, workers) },
	)

	s.SCCCount = len(sccs)
	for _, c := range sccs {
		if len(c) > s.SCCMaxSize {
			s.SCCMaxSize = len(c)
		}
	}
	s.SCCAvgSize = float64(s.Nodes) / float64(max(1, s.SCCCount))

	s.WCCCount = len(wccs)
	for _, c := range wccs {
		if len(c) > s.WCCMaxSize {
			s.WCCMaxSize = len(c)
		}
	}
	s.WCCAvgSize = float64(s.Nodes) / float64(max(1, s.WCCCount))
	return s
}

// topology is all the analyses read of a graph: which nodes there are and
// how edges connect them. It is built from the view's two row scans — no
// pointer structs, no per-node adjacency calls — and addresses a node by its
// row, the position of its OID in ascending order, so the analyses index
// slices where they would otherwise hash OIDs.
type topology struct {
	ids      []pg.OID // node OIDs, ascending
	from, to []int32  // each edge's endpoint rows, in ascending edge-OID order
	// Out-adjacency CSR by row: the successors of row i are
	// succ[outOff[i]:outOff[i+1]], in edge-OID order.
	outOff []int32
	succ   []int32
}

func newTopology(g pg.View) *topology {
	t := &topology{
		ids:  make([]pg.OID, 0, g.NumNodes()),
		from: make([]int32, 0, g.NumEdges()),
		to:   make([]int32, 0, g.NumEdges()),
	}
	g.ScanNodes(func(n *pg.NodeRow) bool {
		t.ids = append(t.ids, n.ID)
		return true
	})
	row := func(id pg.OID) int32 {
		i, _ := slices.BinarySearch(t.ids, id) // a view's edges end at its nodes
		return int32(i)
	}
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		t.from = append(t.from, row(e.From))
		t.to = append(t.to, row(e.To))
		return true
	})
	t.outOff = make([]int32, len(t.ids)+1)
	for _, f := range t.from {
		t.outOff[f+1]++
	}
	for i := range t.ids {
		t.outOff[i+1] += t.outOff[i]
	}
	t.succ = make([]int32, len(t.from))
	next := slices.Clone(t.outOff[:len(t.ids)])
	for i, f := range t.from {
		t.succ[next[f]] = t.to[i]
		next[f]++
	}
	return t
}

func (t *topology) outDegree(row int) int { return int(t.outOff[row+1] - t.outOff[row]) }

// inDegrees returns the in-degree of every node, in OID order.
func (t *topology) inDegrees() []int {
	out := make([]int, len(t.ids))
	for _, to := range t.to {
		out[to]++
	}
	return out
}

// runTasks executes the tasks on up to workers goroutines and waits for all
// of them; workers <= 1 runs them in order on the calling goroutine. Tasks
// must write to disjoint state.
func runTasks(workers int, tasks ...func()) {
	if workers <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(t func()) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t()
		}(t)
	}
	wg.Wait()
}

// SCC returns the strongly connected components of the graph using an
// iterative Tarjan algorithm (the recursion is unrolled so that graphs with
// millions of nodes do not overflow the stack). Components are returned with
// their member node OIDs sorted, and components sorted by first member.
func SCC(g pg.View) [][]pg.OID { return newTopology(g).scc() }

func (t *topology) scc() [][]pg.OID {
	const unseen = -1
	n := len(t.ids)
	index := make([]int32, n)
	for i := range index {
		index[i] = unseen
	}
	low := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	var comps [][]pg.OID
	var counter int32

	// A frame walks succ[next:end], the successors of v.
	type frame struct{ v, next, end int32 }
	visit := func(v int32) frame {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		return frame{v, t.outOff[v], t.outOff[v+1]}
	}

	for root := int32(0); int(root) < n; root++ {
		if index[root] != unseen {
			continue
		}
		frames := []frame{visit(root)}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.next < f.end {
				w := t.succ[f.next]
				f.next++
				if index[w] == unseen {
					frames = append(frames, visit(w))
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// All successors done: pop the frame.
			if low[f.v] == index[f.v] {
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				slices.Sort(comp) // ascending rows are ascending OIDs
				members := make([]pg.OID, len(comp))
				for i, r := range comp {
					members[i] = t.ids[r]
				}
				comps = append(comps, members)
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// WCC returns the weakly connected components via union-find, members
// sorted and components sorted by first member.
func WCC(g pg.View) [][]pg.OID { return newTopology(g).wcc() }

func (t *topology) wcc() [][]pg.OID {
	parent := make([]int32, len(t.ids))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		r := x
		for parent[r] != r {
			r = parent[r]
		}
		for parent[x] != r {
			parent[x], x = r, parent[x]
		}
		return r
	}
	for i := range t.from {
		a, b := find(t.from[i]), find(t.to[i])
		if a != b {
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	// The smaller root always wins a union, so a component's root is its
	// first member: walking the rows in order meets every root before the
	// rest of its component, and the components come out sorted.
	compOf := make([]int32, len(t.ids))
	var comps [][]pg.OID
	for i := range parent {
		r := find(int32(i))
		if r == int32(i) {
			compOf[i] = int32(len(comps))
			comps = append(comps, nil)
		}
		comps[compOf[r]] = append(comps[compOf[r]], t.ids[i])
	}
	return comps
}

// AvgClustering computes the average local clustering coefficient of the
// undirected simple projection of g. If the graph has more than sampleCap
// nodes the coefficient is averaged over the first sampleCap nodes in OID
// order (deterministic sampling).
func AvgClustering(g pg.View, sampleCap int) float64 {
	return newTopology(g).avgClustering(sampleCap, 1)
}

const (
	// clusterMinShard is the smallest node range worth a separate shard;
	// clusterMaxShards bounds the number of partial sums.
	clusterMinShard  = 256
	clusterMaxShards = 64
)

// clusterShards partitions n sample positions into contiguous [lo,hi)
// ranges. Like the reasoner's shard plan (internal/vadalog/parallel.go), it
// is a function of n alone, so the association order of the floating-point
// partial sums — and with it the exact result — is the same for every worker
// count.
func clusterShards(n int) [][2]int {
	shards := n / clusterMinShard
	if shards < 1 {
		shards = 1
	}
	if shards > clusterMaxShards {
		shards = clusterMaxShards
	}
	out := make([][2]int, 0, shards)
	for i := 0; i < shards; i++ {
		if lo, hi := i*n/shards, (i+1)*n/shards; lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

func (t *topology) avgClustering(sampleCap, workers int) float64 {
	if len(t.ids) == 0 {
		return 0
	}
	// Undirected neighbor sets by row, excluding self-loops.
	neigh := make([]map[int32]bool, len(t.ids))
	add := func(a, b int32) {
		if a == b {
			return
		}
		if neigh[a] == nil {
			neigh[a] = map[int32]bool{}
		}
		neigh[a][b] = true
	}
	for i := range t.from {
		add(t.from[i], t.to[i])
		add(t.to[i], t.from[i])
	}
	sample := len(t.ids)
	if sampleCap > 0 && sample > sampleCap {
		sample = sampleCap
	}
	plan := clusterShards(sample)
	partial := make([]float64, len(plan))
	shard := func(s int) {
		var sum float64
		for _, ns := range neigh[plan[s][0]:plan[s][1]] {
			k := len(ns)
			if k < 2 {
				continue
			}
			links := 0
			for a := range ns {
				na := neigh[a]
				for b := range ns {
					if a < b && na[b] {
						links++
					}
				}
			}
			sum += 2 * float64(links) / (float64(k) * float64(k-1))
		}
		partial[s] = sum
	}
	if workers <= 1 || len(plan) == 1 {
		for s := range plan {
			shard(s)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(plan)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(next.Add(1) - 1)
					if s >= len(plan) {
						return
					}
					shard(s)
				}
			}()
		}
		wg.Wait()
	}
	// Reduce in shard order: identical association for every worker count.
	var total float64
	for _, p := range partial {
		total += p
	}
	return total / float64(sample)
}

// PowerLawMLE fits a discrete power law p(k) ∝ k^-α to the degree sample via
// the Clauset-Shalizi-Newman continuous approximation
// α = 1 + n / Σ ln(k_i / (xmin - 0.5)) over degrees k_i ≥ xmin. The xmin is
// fixed at 1 unless fewer than 10 samples qualify, in which case (0,0) is
// returned.
func PowerLawMLE(degrees []int) (alpha float64, xmin int) {
	xmin = 1
	var n int
	var sum float64
	for _, k := range degrees {
		if k >= xmin {
			n++
			sum += math.Log(float64(k) / (float64(xmin) - 0.5))
		}
	}
	if n < 10 || sum == 0 {
		return 0, 0
	}
	return 1 + float64(n)/sum, xmin
}

// DegreeHistogram returns the distribution of the given degree sample as a
// map degree → count.
func DegreeHistogram(degrees []int) map[int]int {
	h := map[int]int{}
	for _, d := range degrees {
		h[d]++
	}
	return h
}

// InDegrees returns the in-degree of every node, in OID order.
func InDegrees(g pg.View) []int { return newTopology(g).inDegrees() }

// OutDegrees returns the out-degree of every node, in OID order.
func OutDegrees(g pg.View) []int {
	t := newTopology(g)
	out := make([]int, len(t.ids))
	for i := range out {
		out[i] = t.outDegree(i)
	}
	return out
}

// Table renders the statistics in the layout of Section 2.1, for kgstats.
func (s Stats) Table() string {
	var b strings.Builder
	row := func(name, val string) { fmt.Fprintf(&b, "%-34s %s\n", name, val) }
	row("nodes", fmt.Sprintf("%d", s.Nodes))
	row("edges", fmt.Sprintf("%d", s.Edges))
	row("strongly connected components", fmt.Sprintf("%d", s.SCCCount))
	row("  avg SCC size", fmt.Sprintf("%.2f", s.SCCAvgSize))
	row("  largest SCC", fmt.Sprintf("%d", s.SCCMaxSize))
	row("weakly connected components", fmt.Sprintf("%d", s.WCCCount))
	row("  avg WCC size", fmt.Sprintf("%.2f", s.WCCAvgSize))
	row("  largest WCC", fmt.Sprintf("%d", s.WCCMaxSize))
	row("avg in-degree (active nodes)", fmt.Sprintf("%.2f", s.AvgInDegreeActive))
	row("avg out-degree (active nodes)", fmt.Sprintf("%.2f", s.AvgOutDegreeActive))
	row("avg degree (edges/nodes)", fmt.Sprintf("%.2f", s.AvgInDegreeAll))
	row("max in-degree", fmt.Sprintf("%d", s.MaxInDegree))
	row("max out-degree", fmt.Sprintf("%d", s.MaxOutDegree))
	row("avg clustering coefficient", fmt.Sprintf("%.4f", s.AvgClusteringCoefficient))
	row("power-law alpha (in-degree)", fmt.Sprintf("%.2f (xmin=%d)", s.PowerLawAlpha, s.PowerLawXMin))
	return b.String()
}
