package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// A span is one call from the benchmark into a layer's public functions.
// Nothing inside internal/ is instrumented: the benchmark wraps the calls it
// makes, composing an opaque entry point (instance.Materialize, a /query)
// out of the layer calls it consists of where the split is wanted.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Layer  string `json:"layer"` // package under internal/, or "bench"
	// Rep groups the spans of one repetition or request.
	Rep     int   `json:"rep"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// AllocBytes and Mallocs are the deltas over the span of the runtime's
	// cumulative allocation counters — MemStats' TotalAlloc and Mallocs,
	// read through runtime/metrics, which does not stop the world. They are
	// process-wide: with two clients running they include the other
	// goroutine's allocations.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// ResidentBytes is the heap-after-GC delta, for spans that build a
	// structure that stays resident (startResident/endResident only).
	ResidentBytes int64 `json:"resident_bytes,omitempty"`

	heapBefore uint64
}

// tracer keeps spans in memory and writes them out once, at the end of the
// run. A nil tracer records nothing, so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// allocCounters reads the cumulative bytes and objects allocated.
func allocCounters() (bytes, objects uint64) {
	sample := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample[:])
	return sample[0].Value.Uint64(), sample[1].Value.Uint64()
}

func (t *tracer) start(name, layer string, parent, rep int) int {
	if t == nil {
		return 0
	}
	bytes, objects := allocCounters()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Rep: rep,
		AllocBytes: bytes, Mallocs: objects, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	bytes, objects := allocCounters()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = end
	s.AllocBytes = bytes - s.AllocBytes
	s.Mallocs = objects - s.Mallocs
}

// startResident is start for a span that builds a resident structure: the
// heap is collected first, outside the span's clock, so the delta taken by
// endResident is the structure and not floating garbage.
func (t *tracer) startResident(name, layer string, parent, rep int) int {
	if t == nil {
		return 0
	}
	heap := heapAfterGC()
	id := t.start(name, layer, parent, rep)
	t.mu.Lock()
	t.spans[id-1].heapBefore = heap
	t.mu.Unlock()
	return id
}

func (t *tracer) endResident(id int) {
	if t == nil {
		return
	}
	t.end(id)
	heap := heapAfterGC()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.ResidentBytes = int64(heap) - int64(s.heapBefore)
	t.mu.Unlock()
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other (two
// clients under one phase span); the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := int64(0), s.StartNS
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// named returns the spans with the given name, in recording order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfByRep sums, per repetition, the self time of every span carrying one
// of the names, and returns the per-rep sums in milliseconds, rep order.
func (t *tracer) selfByRep(names ...string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	byRep := map[int]float64{}
	for _, s := range spans {
		if want[s.Name] {
			byRep[s.Rep] += ms(self[s.ID])
		}
	}
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = byRep[r]
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }
func mb(bytes float64) float64     { return bytes / (1 << 20) }
