package obs

import (
	"encoding/json"
	"expvar"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// mapKeys returns the key set of a published expvar map, sorted.
func mapKeys(m *expvar.Map) []string {
	var keys []string
	m.Do(func(kv expvar.KeyValue) { keys = append(keys, kv.Key) })
	sort.Strings(keys)
	return keys
}

// TestEngineKeysGolden pins the wire names of the "vadalog" map: dashboards
// and the README quote them, so a renamed field tag is a breaking change.
func TestEngineKeysGolden(t *testing.T) {
	want := []string{
		"facts_derived", "plan_actual_rows", "plan_est_rows", "plan_fallbacks",
		"planned_runs", "retries", "retries_exhausted", "retries_succeeded",
		"rounds", "runs", "runs_canceled", "runs_errored", "runs_timed_out",
		"unplanned_runs",
	}
	m, ok := expvar.Get("vadalog").(*expvar.Map)
	if !ok {
		t.Fatalf("expvar %q is %T, want *expvar.Map", "vadalog", expvar.Get("vadalog"))
	}
	if got := mapKeys(m); !reflect.DeepEqual(got, want) {
		t.Errorf("vadalog keys:\n got %v\nwant %v", got, want)
	}
	if n := reflect.TypeOf(&Engine).Elem().NumField(); n != len(want) {
		t.Errorf("Engine has %d fields, %d are published", n, len(want))
	}
	// The map renders as one JSON object of numbers, as /debug/vars serves it.
	var decoded map[string]int64
	if err := json.Unmarshal([]byte(m.String()), &decoded); err != nil {
		t.Fatalf("vadalog map is not a JSON object of integers: %v\n%s", err, m)
	}
}

// TestPublishRequiresWireTags: a set has no unpublished counters — a field
// without a wire name, or one that is not a Counter, is refused.
func TestPublishRequiresWireTags(t *testing.T) {
	var good struct {
		A Counter `expvar:"a"`
		B Counter `expvar:"b"`
	}
	m := new(expvar.Map)
	if err := publishInto(m, &good); err != nil {
		t.Fatal(err)
	}
	if got := mapKeys(m); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("published keys = %v, want every field", got)
	}
	var untagged struct {
		A Counter `expvar:"a"`
		B Counter
	}
	if err := publishInto(new(expvar.Map), &untagged); err == nil || !strings.Contains(err.Error(), ".B ") {
		t.Errorf("untagged field: err = %v, want one naming B", err)
	}
	var notCounter struct {
		A int64 `expvar:"a"`
	}
	if err := publishInto(new(expvar.Map), &notCounter); err == nil {
		t.Error("non-Counter field was published")
	}
}

// TestSnapshotSumsConcurrentAdds: the snapshot of a set equals the sum of the
// adds made from many goroutines, field by field (run under -race).
func TestSnapshotSumsConcurrentAdds(t *testing.T) {
	type set[C any] struct {
		Ones C `expvar:"ones"`
		Twos C `expvar:"twos"`
	}
	var live set[Counter]
	var lat Latency
	const goroutines, adds = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				live.Ones.Add(1)
				live.Twos.Add(2)
				lat.Observe(time.Duration(g*adds + i))
			}
		}(g)
	}
	wg.Wait()
	if got, want := Snapshot[set[int64]](&live), (set[int64]{Ones: goroutines * adds, Twos: 2 * goroutines * adds}); got != want {
		t.Errorf("snapshot = %+v, want %+v", got, want)
	}
	var agg struct {
		Count   int64 `json:"count"`
		TotalNS int64 `json:"total_ns"`
		MaxNS   int64 `json:"max_ns"`
	}
	if err := json.Unmarshal([]byte(lat.String()), &agg); err != nil {
		t.Fatalf("latency is not JSON: %v: %s", err, lat.String())
	}
	n := int64(goroutines * adds)
	if agg.Count != n || agg.TotalNS != n*(n-1)/2 || agg.MaxNS != n-1 {
		t.Errorf("latency = %+v, want count %d total %d max %d", agg, n, n*(n-1)/2, n-1)
	}
}

// TestPublishLatencyShared: every caller naming a key gets the one aggregate
// published under it.
func TestPublishLatencyShared(t *testing.T) {
	m := new(expvar.Map)
	a, b := PublishLatency(m, "latency_x"), PublishLatency(m, "latency_x")
	if a != b || m.Get("latency_x") != expvar.Var(a) {
		t.Error("PublishLatency created a second aggregate for the same key")
	}
	a.Observe(3)
	if got := b.String(); got != `{"count":1,"total_ns":3,"max_ns":3}` {
		t.Errorf("latency = %s", got)
	}
}
