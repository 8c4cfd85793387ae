package obs

import (
	"expvar"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A counter set is declared once, as a struct generic in its cell type whose
// fields are the counters and whose `expvar` tags are the wire names:
//
//	type set[C any] struct {
//		Requests C `expvar:"requests"`
//	}
//
// set[Counter] is the live form — Publish puts every field into one expvar
// map, increment sites call Add on the field — and set[int64] is the
// point-in-time form Snapshot copies it into. A counter's name is spelled in
// that one declaration and nowhere else.

// Counter is one process-wide count. The zero value is ready to use.
type Counter struct{ n atomic.Int64 }

// Add grows the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// String renders the count as JSON, making *Counter an expvar.Var.
func (c *Counter) String() string { return strconv.FormatInt(c.Load(), 10) }

// Latency aggregates the durations of one kind of operation: how many, their
// sum and the longest. Observe is three atomic operations and takes no lock.
type Latency struct{ count, total, max atomic.Int64 }

// Observe folds one completed operation into the aggregate.
func (l *Latency) Observe(d time.Duration) {
	ns := int64(d)
	l.count.Add(1)
	l.total.Add(ns)
	for {
		cur := l.max.Load()
		if ns <= cur || l.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// String renders the aggregate as JSON, making *Latency an expvar.Var.
func (l *Latency) String() string {
	return fmt.Sprintf(`{"count":%d,"total_ns":%d,"max_ns":%d}`, l.count.Load(), l.total.Load(), l.max.Load())
}

// publishInto sets every counter of the live set (a pointer to a struct) in m
// under its wire name. A field that is not a Counter or carries no `expvar`
// tag is an error: a set has no unpublished counters.
func publishInto(m *expvar.Map, live any) error {
	v := reflect.ValueOf(live).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		c, ok := v.Field(i).Addr().Interface().(*Counter)
		name := f.Tag.Get("expvar")
		if !ok || name == "" {
			return fmt.Errorf("obs: %s.%s must be an obs.Counter with an `expvar` wire-name tag", v.Type(), f.Name)
		}
		m.Set(name, c)
	}
	return nil
}

// Publish publishes every counter of the live set under the expvar map name
// (served at /debug/vars) and returns the map. Sets are package variables
// published as they are initialized, so a malformed one panics at start-up.
func Publish(name string, live any) *expvar.Map {
	m := new(expvar.Map)
	if err := publishInto(m, live); err != nil {
		panic(err)
	}
	expvar.Publish(name, m)
	return m
}

// Snapshot copies a published live set into its point-in-time form S, field
// by field: S is the same struct over int64 cells.
func Snapshot[S any](live any) S {
	var s S
	in, out := reflect.ValueOf(live).Elem(), reflect.ValueOf(&s).Elem()
	for i := 0; i < in.NumField(); i++ {
		out.Field(i).SetInt(in.Field(i).Addr().Interface().(*Counter).Load())
	}
	return s
}

var latencyMu sync.Mutex

// PublishLatency returns the latency aggregate published in m under key,
// creating it on first use. Aggregates are process-wide like the counters
// beside them: every caller naming the same key shares one.
func PublishLatency(m *expvar.Map, key string) *Latency {
	latencyMu.Lock()
	defer latencyMu.Unlock()
	if l, ok := m.Get(key).(*Latency); ok {
		return l
	}
	l := new(Latency)
	m.Set(key, l)
	return l
}
