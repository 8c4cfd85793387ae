package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graphstats"
	"repro/internal/sortedset"
)

// countersSince returns a function reporting how far the process-wide serving
// counters have moved since this call. Every test reads them through it: the
// counters are shared by all servers of the test process, so only deltas
// across a test's own requests mean anything.
func countersSince() func() CounterSnapshot {
	before := CountersSnapshot()
	return func() CounterSnapshot {
		d := CountersSnapshot()
		dv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(before)
		for i := 0; i < dv.NumField(); i++ {
			dv.Field(i).SetInt(dv.Field(i).Int() - bv.Field(i).Int())
		}
		return d
	}
}

// debugVars fetches /debug/vars from a Debug server and returns the two
// published counter maps, values still raw.
func debugVars(t *testing.T, s *Server) (vadalog, kgserve map[string]json.RawMessage) {
	t.Helper()
	w := getPath(t, s.Handler(), "/debug/vars")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/vars: %d %s", w.Code, w.Body.String())
	}
	var doc struct {
		Vadalog map[string]json.RawMessage `json:"vadalog"`
		KGServe map[string]json.RawMessage `json:"kgserve"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	return doc.Vadalog, doc.KGServe
}

// TestDebugVarsGolden pins what a -debug server publishes: the kgserve map
// holds exactly the 21 serving counters under their wire names plus one
// latency aggregate per endpoint, every field of the set is there, and the
// engine's vadalog map sits beside it. /debug/pprof rides the same mount,
// which exists only with Config.Debug.
func TestDebugVarsGolden(t *testing.T) {
	want := []string{
		"cache_hits", "cache_misses", "compact_errors", "compactions", "errors",
		"latency_compact", "latency_explain", "latency_healthz", "latency_mutate",
		"latency_query", "latency_reload", "latency_schema", "latency_stats",
		"latency_validate",
		"mutate_errors", "mutate_fallbacks", "mutates", "plan_cache_hits",
		"plan_cache_misses", "query_reextracts", "rejected", "reload_errors",
		"reloads", "requests", "stats_computes", "wal_append_errors", "wal_appends",
		"wal_checkpoint_errors", "wal_checkpoints", "wal_replayed",
	}
	s := newTestServer(t, Config{Debug: true})
	vadalog, kgserve := debugVars(t, s)
	if got := sortedset.Keys(kgserve); !reflect.DeepEqual(got, want) {
		t.Errorf("kgserve keys:\n got %v\nwant %v", got, want)
	}
	const latencyKeys = 9
	if n := reflect.TypeOf(&counters).Elem().NumField(); n != len(want)-latencyKeys {
		t.Errorf("the counter set has %d fields, %d are published", n, len(want)-latencyKeys)
	}
	if _, ok := vadalog["runs"]; !ok || len(vadalog) != 14 {
		t.Errorf("vadalog map has %d keys (runs present: %v), want the 14 engine counters", len(vadalog), ok)
	}

	if w := getPath(t, s.Handler(), "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", w.Code)
	}
	if w := getPath(t, newTestServer(t, Config{}).Handler(), "/debug/vars"); w.Code != http.StatusNotFound {
		t.Errorf("/debug/vars without Debug: %d, want 404", w.Code)
	}
}

// TestLatencyTracked: every request lands in its endpoint's published
// aggregate — count moves by exactly the requests sent.
func TestLatencyTracked(t *testing.T) {
	s := newTestServer(t, Config{Debug: true})
	healthz := func() (agg struct {
		Count   int64 `json:"count"`
		TotalNS int64 `json:"total_ns"`
		MaxNS   int64 `json:"max_ns"`
	}) {
		_, kgserve := debugVars(t, s)
		raw, ok := kgserve["latency_healthz"]
		if !ok {
			t.Fatal("healthz missing from the published latency aggregates")
		}
		if err := json.Unmarshal(raw, &agg); err != nil {
			t.Fatalf("latency_healthz = %s: %v", raw, err)
		}
		return agg
	}
	before := healthz()
	const requests = 3
	for i := 0; i < requests; i++ {
		getPath(t, s.Handler(), "/healthz")
	}
	after := healthz()
	if d := after.Count - before.Count; d != requests {
		t.Errorf("healthz count moved by %d, want %d", d, requests)
	}
	if after.TotalNS <= before.TotalNS || after.MaxNS <= 0 || after.MaxNS > after.TotalNS {
		t.Errorf("healthz aggregate %+v after %+v is not a count/total/max of durations", after, before)
	}
}

// TestStatsResponseLattice: /stats is one response value — the graph stats
// plus the sections of whatever is on — over planner × WAL × source form. The
// live sections appear exactly when their feature is configured, the build
// header exactly for snapshot-file sources, the graph-stats fields never
// change, and a planner-off WAL-less server over JSON answers the bare stats
// document, byte for byte what it always was.
func TestStatsResponseLattice(t *testing.T) {
	jsonPath, snapPath := snapFixture(t)
	ref, err := New(Config{Source: jsonPath, PlannerOff: true})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := json.MarshalIndent(graphstats.Compute(ref.current().view), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	bare = append(bare, '\n')
	var bareDoc map[string]json.RawMessage
	if err := json.Unmarshal(bare, &bareDoc); err != nil {
		t.Fatal(err)
	}

	for _, plannerOff := range []bool{true, false} {
		for _, withWAL := range []bool{false, true} {
			for _, src := range []string{jsonPath, snapPath} {
				name := fmt.Sprintf("plannerOff=%v/wal=%v/%s", plannerOff, withWAL, filepath.Ext(src))
				t.Run(name, func(t *testing.T) {
					cfg := Config{Source: src, PlannerOff: plannerOff}
					if withWAL {
						cfg.WALDir = filepath.Join(t.TempDir(), "wal")
					}
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer shutdownServer(t, s)
					w := getPath(t, s.Handler(), "/stats")
					if w.Code != http.StatusOK {
						t.Fatalf("stats: %d %s", w.Code, w.Body.String())
					}
					var doc map[string]json.RawMessage
					if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
						t.Fatal(err)
					}
					for section, want := range map[string]bool{
						"build":   src == snapPath,
						"planner": !plannerOff,
						"wal":     withWAL,
					} {
						if _, has := doc[section]; has != want {
							t.Errorf("section %q present = %v, want %v", section, has, want)
						}
						delete(doc, section)
					}
					if !reflect.DeepEqual(doc, bareDoc) {
						t.Errorf("graph-stats fields differ from the bare document:\n%s", w.Body.String())
					}
					if plannerOff && !withWAL && src == jsonPath {
						if got := w.Body.String(); got != string(bare) {
							t.Errorf("bare /stats body changed:\ngot:\n%s\nwant:\n%s", got, bare)
						}
						if again := getPath(t, s.Handler(), "/stats"); again.Body.String() != string(bare) {
							t.Error("second /stats response is not bit-identical to the first")
						}
					}
				})
			}
		}
	}
}
