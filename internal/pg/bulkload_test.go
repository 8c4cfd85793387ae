package pg

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/testutil"
	"repro/internal/value"
)

// bulkRun is one uniform-schema run of a reference fact stream: partitioning
// tests split runs into sub-batches at random boundaries, which is exactly
// the freedom a producer has (rows are ordered; schema is per batch).
type bulkRun struct {
	node   bool
	labels []string // node runs
	label  string   // edge runs
	keys   []string
	oids   []OID
	from   []OID
	to     []OID
	vals   []value.Value
}

// makeBulkStream builds a deterministic reference stream: three node
// schemas and two edge schemas, with property keys that deliberately
// collide with label names (the symbol-order-vs-name-order wrinkle the
// permutation path exists for).
func makeBulkStream(rng *rand.Rand, nNodes, nEdges int) []bulkRun {
	nodeShapes := []struct {
		labels []string
		keys   []string
	}{
		{[]string{"Entity", "PhysicalPerson"}, []string{"fiscalCode"}},
		{[]string{"Business", "Entity"}, []string{"Business", "fiscalCode"}}, // key collides with a label
		{[]string{"Share"}, nil},
	}
	edgeShapes := []struct {
		label string
		keys  []string
	}{
		{"OWNS", []string{"percentage"}},
		{"HOLDS", []string{"Share", "right"}}, // key collides with a node label
	}

	var runs []bulkRun
	var nodeOIDs []OID
	next := OID(1)
	for done := 0; done < nNodes; {
		shape := nodeShapes[rng.Intn(len(nodeShapes))]
		rows := 1 + rng.Intn(7)
		if done+rows > nNodes {
			rows = nNodes - done
		}
		r := bulkRun{node: true, labels: shape.labels, keys: shape.keys}
		for i := 0; i < rows; i++ {
			r.oids = append(r.oids, next)
			nodeOIDs = append(nodeOIDs, next)
			next++
			for _, k := range shape.keys {
				r.vals = append(r.vals, value.Str(k+"-v"))
			}
		}
		runs = append(runs, r)
		done += rows
	}
	for done := 0; done < nEdges; {
		shape := edgeShapes[rng.Intn(len(edgeShapes))]
		rows := 1 + rng.Intn(9)
		if done+rows > nEdges {
			rows = nEdges - done
		}
		r := bulkRun{label: shape.label, keys: shape.keys}
		for i := 0; i < rows; i++ {
			r.oids = append(r.oids, next)
			next++
			r.from = append(r.from, nodeOIDs[rng.Intn(len(nodeOIDs))])
			r.to = append(r.to, nodeOIDs[rng.Intn(len(nodeOIDs))])
			for range shape.keys {
				r.vals = append(r.vals, value.FloatV(float64(rng.Intn(100))/7))
			}
		}
		runs = append(runs, r)
		done += rows
	}
	return runs
}

// feedRuns loads a stream, splitting each run into sub-batches at the
// boundaries cut chooses (cut(rows) returns a split size in [1,rows]).
func feedRuns(t *testing.T, l *BulkLoader, runs []bulkRun, cut func(rows int) int) {
	t.Helper()
	for _, r := range runs {
		for lo := 0; lo < len(r.oids); {
			n := cut(len(r.oids) - lo)
			hi := lo + n
			nk := len(r.keys)
			var err error
			if r.node {
				err = l.AddNodes(NodeBatch{
					Labels: r.labels, Keys: r.keys,
					OIDs: r.oids[lo:hi], Vals: r.vals[lo*nk : hi*nk],
				})
			} else {
				err = l.AddEdges(EdgeBatch{
					Label: r.label, Keys: r.keys,
					OIDs: r.oids[lo:hi], From: r.from[lo:hi], To: r.to[lo:hi],
					Vals: r.vals[lo*nk : hi*nk],
				})
			}
			if err != nil {
				t.Fatalf("staging batch: %v", err)
			}
			lo = hi
		}
	}
}

func finishColumns(t *testing.T, l *BulkLoader) Columns {
	t.Helper()
	f, err := l.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return f.Columns()
}

// TestBulkLoadPartitioningInvariance is the loader's property test: any
// batch partitioning of the same fact stream, at any worker count, produces
// an identical snapshot — column for column.
func TestBulkLoadPartitioningInvariance(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		runs := makeBulkStream(rng, 40+rng.Intn(60), 60+rng.Intn(90))

		ref := NewBulkLoader(1)
		feedRuns(t, ref, runs, func(rows int) int { return rows }) // one batch per run
		want := finishColumns(t, ref)

		for _, workers := range []int{1, 3, 8} {
			l := NewBulkLoader(workers)
			feedRuns(t, l, runs, func(rows int) int { return 1 + rng.Intn(rows) }) // random splits
			got := finishColumns(t, l)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d W=%d: random partitioning changed the snapshot columns", trial, workers)
			}
		}
	}
}

// TestBulkLoadMatchesFreeze pins the loader against the reference packer:
// replaying the stream into a mutable Graph and packing it with
// oracleColumns yields the same columns, including the per-row symbol-order
// property permutation.
func TestBulkLoadMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	runs := makeBulkStream(rng, 80, 120)

	l := NewBulkLoader(4)
	feedRuns(t, l, runs, func(rows int) int { return rows })
	got := finishColumns(t, l)

	g := New()
	for _, r := range runs {
		nk := len(r.keys)
		for i, id := range r.oids {
			props := make(Props, nk)
			for j, k := range r.keys {
				props[k] = r.vals[i*nk+j]
			}
			if nk == 0 {
				props = nil
			}
			if r.node {
				if _, err := g.AddNodeWithID(id, r.labels, props); err != nil {
					t.Fatalf("replay node: %v", err)
				}
			} else if _, err := g.AddEdgeWithID(id, r.from[i], r.to[i], r.label, props); err != nil {
				t.Fatalf("replay edge: %v", err)
			}
		}
	}
	if !reflect.DeepEqual(got, oracleColumns(g)) {
		t.Fatalf("bulk-loaded columns diverge from the reference packer's")
	}
}

// TestBulkLoadTypedErrors sweeps the malformed-input space: every rejection
// is one of the typed errors, never a panic, and the loader refuses further
// use after Finish.
func TestBulkLoadTypedErrors(t *testing.T) {
	str := []value.Value{value.Str("x")}
	cases := []struct {
		name string
		feed func(l *BulkLoader) error
		want error
	}{
		{"unsorted labels", func(l *BulkLoader) error {
			return l.AddNodes(NodeBatch{Labels: []string{"b", "a"}, OIDs: []OID{1}})
		}, ErrBadBatch},
		{"duplicate labels", func(l *BulkLoader) error {
			return l.AddNodes(NodeBatch{Labels: []string{"a", "a"}, OIDs: []OID{1}})
		}, ErrBadBatch},
		{"unsorted keys", func(l *BulkLoader) error {
			return l.AddNodes(NodeBatch{Keys: []string{"k", "j"}, OIDs: []OID{1}, Vals: []value.Value{str[0], str[0]}})
		}, ErrBadBatch},
		{"value count mismatch", func(l *BulkLoader) error {
			return l.AddNodes(NodeBatch{Keys: []string{"k"}, OIDs: []OID{1, 2}, Vals: str})
		}, ErrBadBatch},
		{"non-positive OID", func(l *BulkLoader) error {
			return l.AddNodes(NodeBatch{OIDs: []OID{0}})
		}, ErrBadBatch},
		{"duplicate OID within batch", func(l *BulkLoader) error {
			return l.AddNodes(NodeBatch{OIDs: []OID{3, 3}})
		}, ErrDuplicateOID},
		{"out-of-order across batches", func(l *BulkLoader) error {
			if err := l.AddNodes(NodeBatch{OIDs: []OID{5}}); err != nil {
				return err
			}
			return l.AddNodes(NodeBatch{OIDs: []OID{4}})
		}, ErrDuplicateOID},
		{"edge endpoint column mismatch", func(l *BulkLoader) error {
			return l.AddEdges(EdgeBatch{OIDs: []OID{1}, From: []OID{1}})
		}, ErrBadBatch},
		{"edge value count mismatch", func(l *BulkLoader) error {
			return l.AddEdges(EdgeBatch{Keys: []string{"k"}, OIDs: []OID{1}, From: []OID{1}, To: []OID{1}})
		}, ErrBadBatch},
		{"edge duplicate OID", func(l *BulkLoader) error {
			if err := l.AddEdges(EdgeBatch{OIDs: []OID{9}, From: []OID{1}, To: []OID{1}}); err != nil {
				return err
			}
			return l.AddEdges(EdgeBatch{OIDs: []OID{9}, From: []OID{1}, To: []OID{1}})
		}, ErrDuplicateOID},
	}
	for _, tc := range cases {
		if err := tc.feed(NewBulkLoader(2)); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Dangling endpoints surface at Finish.
	l := NewBulkLoader(2)
	if err := l.AddNodes(NodeBatch{OIDs: []OID{1}}); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if err := l.AddEdges(EdgeBatch{Label: "E", OIDs: []OID{2}, From: []OID{1}, To: []OID{99}}); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if _, err := l.Finish(); !errors.Is(err, ErrDanglingEdge) {
		t.Fatalf("dangling edge: got %v, want ErrDanglingEdge", err)
	}

	// A finished (or failed) loader is done for good.
	if err := l.AddNodes(NodeBatch{OIDs: []OID{10}}); !errors.Is(err, ErrLoaderDone) {
		t.Fatalf("add after finish: got %v, want ErrLoaderDone", err)
	}
	if _, err := l.Finish(); !errors.Is(err, ErrLoaderDone) {
		t.Fatalf("double finish: got %v, want ErrLoaderDone", err)
	}
}

// TestBulkLoadEmpty pins the degenerate case: an empty load (and empty
// batches) produce a valid empty snapshot.
func TestBulkLoadEmpty(t *testing.T) {
	l := NewBulkLoader(2)
	if err := l.AddNodes(NodeBatch{Labels: []string{"A"}}); err != nil {
		t.Fatalf("empty node batch: %v", err)
	}
	if err := l.AddEdges(EdgeBatch{Label: "E"}); err != nil {
		t.Fatalf("empty edge batch: %v", err)
	}
	f, err := l.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if f.NumNodes() != 0 || f.NumEdges() != 0 {
		t.Fatalf("empty load produced %d nodes / %d edges", f.NumNodes(), f.NumEdges())
	}
}

// TestBulkLoadReserve pins that a correctly-hinted load never reallocates
// its OID column (the exact-size allocation contract of the stream path).
func TestBulkLoadReserve(t *testing.T) {
	l := NewBulkLoader(1)
	l.Reserve(10, 10, 5, 5)
	base := &l.nodeOIDs[:1][0] // capacity > 0 after Reserve
	for i := 0; i < 10; i++ {
		if err := l.AddNodes(NodeBatch{Keys: []string{"k"}, OIDs: []OID{OID(i + 1)}, Vals: []value.Value{value.IntV(int64(i))}}); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if &l.nodeOIDs[0] != base {
		t.Fatalf("node OID column reallocated despite exact Reserve")
	}
	if f, err := l.Finish(); err != nil || f.NumNodes() != 10 {
		t.Fatalf("finish: %v", err)
	}
}

// TestChaosBulkLoad chaos-sweeps the pg/bulkload site: error and panic
// plans at several trigger offsets must fail Finish with a typed error,
// leak no goroutines, leave no partial dictionary state behind (the loader
// is done, nothing escaped), and a fresh unfaulted loader must reproduce
// the exact snapshot — the savepoint guarantee, ported to bulk ingest.
func TestChaosBulkLoad(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(42))
	runs := makeBulkStream(rng, 60, 80)

	fault.Reset()
	clean := NewBulkLoader(4)
	feedRuns(t, clean, runs, func(rows int) int { return rows })
	want := finishColumns(t, clean)

	for _, mode := range []fault.Mode{fault.ModeError, fault.ModePanic} {
		for _, after := range []int{1, 3, 7} {
			checkLeak := testutil.CheckGoroutineLeak(t)
			if err := fault.Arm("pg/bulkload", fault.Plan{Mode: mode, After: after}); err != nil {
				t.Fatalf("arm: %v", err)
			}
			l := NewBulkLoader(4)
			feedRuns(t, l, runs, func(rows int) int { return rows })
			f, err := l.Finish()
			if fired := fault.Fired("pg/bulkload"); fired == 0 {
				t.Fatalf("mode=%v after=%d: fault site never fired", mode, after)
			}
			fault.Reset()
			if err == nil {
				t.Fatalf("mode=%v after=%d: Finish succeeded under an armed fault", mode, after)
			}
			if f != nil {
				t.Fatalf("mode=%v after=%d: failed Finish returned a snapshot", mode, after)
			}
			switch mode {
			case fault.ModeError:
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("mode=error: got %v, want injected error", err)
				}
			case fault.ModePanic:
				var pe *fault.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("mode=panic: got %v, want contained PanicError", err)
				}
			}
			// No partial state: the loader is done…
			if _, err := l.Finish(); !errors.Is(err, ErrLoaderDone) {
				t.Fatalf("failed loader not marked done: %v", err)
			}
			checkLeak()

			// …and a fresh, unfaulted rerun is bit-identical.
			retry := NewBulkLoader(4)
			feedRuns(t, retry, runs, func(rows int) int { return rows })
			if got := finishColumns(t, retry); !reflect.DeepEqual(got, want) {
				t.Fatalf("mode=%v after=%d: post-fault rerun diverges from clean load", mode, after)
			}
		}
	}
}

// TestBulkLoadDelayFaultHarmless pins that a delay plan (the load
// benchmark's backend-floor instrument) perturbs timing only: the load
// succeeds and the snapshot is unchanged.
func TestBulkLoadDelayFaultHarmless(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(43))
	runs := makeBulkStream(rng, 30, 40)

	clean := NewBulkLoader(2)
	feedRuns(t, clean, runs, func(rows int) int { return rows })
	want := finishColumns(t, clean)

	if err := fault.Arm("pg/bulkload", fault.Plan{Mode: fault.ModeDelay, Times: -1}); err != nil {
		t.Fatalf("arm: %v", err)
	}
	l := NewBulkLoader(2)
	feedRuns(t, l, runs, func(rows int) int { return rows })
	got := finishColumns(t, l)
	fault.Reset()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delay fault changed the snapshot")
	}
}

// TestConcurrentBulkIngest is the race-detector leg of the data plane:
// several loaders run their sharded Finish phases concurrently (each with
// internal worker fan-out), which exercises buildSymbols' per-shard
// dictionaries and fillSymbolColumns' disjoint-range writes under
// contention. All results must be identical.
func TestConcurrentBulkIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	runs := makeBulkStream(rng, 120, 200)

	ref := NewBulkLoader(1)
	feedRuns(t, ref, runs, func(rows int) int { return rows })
	want := finishColumns(t, ref)

	const parallel = 6
	results := make([]Columns, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := NewBulkLoader(8)
			for _, r := range runs {
				nk := len(r.keys)
				var err error
				if r.node {
					err = l.AddNodes(NodeBatch{Labels: r.labels, Keys: r.keys, OIDs: r.oids, Vals: r.vals[:len(r.oids)*nk]})
				} else {
					err = l.AddEdges(EdgeBatch{Label: r.label, Keys: r.keys, OIDs: r.oids, From: r.from, To: r.to, Vals: r.vals[:len(r.oids)*nk]})
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
			f, err := l.Finish()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = f.Columns()
		}(i)
	}
	wg.Wait()
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent loader %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("concurrent loader %d diverged from reference", i)
		}
	}
}
