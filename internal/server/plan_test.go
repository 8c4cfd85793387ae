package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pg"
)

// TestExplainEndpoint covers the /explain surface: a planned pattern reports
// its cost estimates and per-rule orders, "run": true adds the actual row
// count next to the estimate, and a planner-off server answers with a typed
// "off" document instead of an error.
func TestExplainEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/explain", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Planner != "on" || !resp.Planned || resp.Plan == nil || !resp.Plan.Planned {
		t.Fatalf("unexpected explain response: %s", w.Body.String())
	}
	if resp.EstimatedRows <= 0 {
		t.Fatalf("planned pattern must carry a positive estimate, got %v", resp.EstimatedRows)
	}
	if len(resp.Plan.Rules) == 0 || len(resp.Plan.Rules[0].Literals) == 0 {
		t.Fatalf("plan carries no per-rule literals: %s", w.Body.String())
	}
	if resp.ActualRows != nil {
		t.Fatal("actualRows must be absent without run:true")
	}

	// run:true executes the planned program and reports the actual count.
	w = postJSON(t, s.Handler(), "/explain", fmt.Sprintf(`{"query":%q,"run":true}`, controlQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("explain run: %d %s", w.Code, w.Body.String())
	}
	resp = explainResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ActualRows == nil || *resp.ActualRows != 1 {
		t.Fatalf("actualRows = %v, want 1", resp.ActualRows)
	}

	// Decoder errors stay typed, like /query.
	w = postJSON(t, s.Handler(), "/explain", `{"query":"((("}`)
	if w.Code != http.StatusBadRequest || errCode(t, w) != "bad_query" {
		t.Fatalf("bad pattern: %d %s", w.Code, w.Body.String())
	}

	off := newTestServer(t, Config{PlannerOff: true})
	w = postJSON(t, off.Handler(), "/explain", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("explain off: %d %s", w.Code, w.Body.String())
	}
	resp = explainResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Planner != "off" || resp.Planned || resp.Plan != nil {
		t.Fatalf("planner-off explain: %s", w.Body.String())
	}
}

// TestPlanCacheHitMiss proves compiled plans are cached per (generation,
// pattern): the first /query compiles (miss), repeats hit, and a mutation —
// a new generation — forces a recompile.
func TestPlanCacheHitMiss(t *testing.T) {
	s, err := NewFromGraph(Config{}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	const q = `(x: Business; fiscalCode: c)`
	delta := countersSince()

	queryRows(t, s, q)
	queryRows(t, s, q)
	queryRows(t, s, q)
	d := delta()
	if d.PlanCacheMisses != 1 {
		t.Fatalf("plan-cache misses = %d, want 1", d.PlanCacheMisses)
	}
	if d.PlanCacheHits != 2 {
		t.Fatalf("plan-cache hits = %d, want 2", d.PlanCacheHits)
	}

	// A new generation moves the key: the same pattern misses once more.
	w := postJSON(t, s.Handler(), "/mutate", `{"ops":[
		{"op":"add_node","name":"c9","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"c9"}}}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", w.Code, w.Body.String())
	}
	queryRows(t, s, q)
	if miss := delta().PlanCacheMisses; miss != 2 {
		t.Fatalf("plan-cache misses after mutation = %d, want 2", miss)
	}

	// /explain shares the same cache: the pattern is already compiled.
	w = postJSON(t, s.Handler(), "/explain", fmt.Sprintf(`{"query":%q}`, q))
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-KG-Cache"); got != "hit" {
		t.Fatalf("explain cache disposition = %q, want hit", got)
	}
}

// TestStatsCachedPerGeneration proves the expensive graph-statistics walk
// runs once per snapshot generation however many /stats requests arrive, and
// that every generation-advancing path — overlay mutation, compaction,
// reload — invalidates the cache by installing a fresh snapshot. The result
// and plan LRUs belong to a generation the same way: after each of the three
// swaps the serving generation's are empty, and one query fills one entry in
// each.
func TestStatsCachedPerGeneration(t *testing.T) {
	g := mutateBase(t)
	src := filepath.Join(t.TempDir(), "base.json")
	f, err := os.Create(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := NewFromGraph(Config{CacheSize: 8}, g)
	if err != nil {
		t.Fatal(err)
	}
	delta := countersSince()
	computes := func() int64 { return delta().StatsComputes }
	lrusEmptiedBy := func(swap string) {
		t.Helper()
		sn := s.current()
		if sn.results.len() != 0 || sn.plans.len() != 0 {
			t.Fatalf("after %s: generation %d starts with %d results and %d plans cached", swap, sn.gen, sn.results.len(), sn.plans.len())
		}
		queryRows(t, s, `(x: Business; fiscalCode: c)`)
		if sn.results.len() != 1 || sn.plans.len() != 1 {
			t.Fatalf("after %s: a query cached %d results and %d plans, want 1 each", swap, sn.results.len(), sn.plans.len())
		}
	}
	lrusEmptiedBy("start-up")

	for i := 0; i < 3; i++ {
		if w := getPath(t, s.Handler(), "/stats"); w.Code != http.StatusOK {
			t.Fatalf("stats %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if got := computes(); got != 1 {
		t.Fatalf("stats computes after 3 requests = %d, want 1", got)
	}

	w := postJSON(t, s.Handler(), "/mutate", `{"ops":[
		{"op":"add_node","name":"m1","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"m1"}}}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", w.Code, w.Body.String())
	}
	getPath(t, s.Handler(), "/stats")
	getPath(t, s.Handler(), "/stats")
	if got := computes(); got != 2 {
		t.Fatalf("stats computes after mutation = %d, want 2", got)
	}
	lrusEmptiedBy("/mutate")

	if w := postJSON(t, s.Handler(), "/compact", ""); w.Code != http.StatusOK {
		t.Fatalf("compact: %d %s", w.Code, w.Body.String())
	}
	getPath(t, s.Handler(), "/stats")
	if got := computes(); got != 3 {
		t.Fatalf("stats computes after compaction = %d, want 3", got)
	}
	lrusEmptiedBy("/compact")

	if w := postJSON(t, s.Handler(), "/reload", fmt.Sprintf(`{"path":%q}`, src)); w.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", w.Code, w.Body.String())
	}
	getPath(t, s.Handler(), "/stats")
	if got := computes(); got != 4 {
		t.Fatalf("stats computes after reload = %d, want 4", got)
	}
	lrusEmptiedBy("/reload")
}

// TestStatsPlannerSection checks /stats surfaces the live planner block —
// cache and run counters, estimated-vs-actual rows (TestStatsResponseLattice
// covers when the section appears).
func TestStatsPlannerSection(t *testing.T) {
	s := newTestServer(t, Config{})
	queryRows(t, s, controlQuery)
	w := getPath(t, s.Handler(), "/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	var doc struct {
		Planner *plannerSection `json:"planner"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Planner == nil || !doc.Planner.Enabled {
		t.Fatalf("stats misses the planner section: %s", w.Body.String())
	}
	if doc.Planner.CacheEntries < 1 || doc.Planner.CacheMisses < 1 {
		t.Fatalf("planner section carries no cache activity: %+v", doc.Planner)
	}
}

// TestChaosPlanOrderFallback arms the plan/order fault site persistently and
// proves the planner's failure is invisible to clients: /query answers stay
// bit-identical to an unfaulted server's, the prepare-time fallback counter
// grows, and /explain names the failure instead of erroring.
func TestChaosPlanOrderFallback(t *testing.T) {
	defer fault.Reset()

	ref := newTestServer(t, Config{})
	w := postJSON(t, ref.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("reference query: %d %s", w.Code, w.Body.String())
	}
	want := w.Body.String()

	if err := fault.Arm("plan/order", fault.Plan{Mode: fault.ModeError, Times: -1}); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	before := obs.Counters().PlanFallbacks

	w = postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("faulted query: %d %s", w.Code, w.Body.String())
	}
	if got := w.Body.String(); got != want {
		t.Errorf("faulted planner changed the answer:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if fault.Fired("plan/order") == 0 {
		t.Fatal("fault site never fired; the sweep proved nothing")
	}
	if d := obs.Counters().PlanFallbacks - before; d < 1 {
		t.Fatalf("plan fallbacks delta = %d, want >= 1", d)
	}

	w = postJSON(t, s.Handler(), "/explain", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("faulted explain: %d %s", w.Code, w.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Planned || resp.Fallback == "" {
		t.Fatalf("faulted explain must report an unplanned fallback: %s", w.Body.String())
	}

	// Disarming restores planning for new generations/patterns without a
	// restart: a fresh server plans again.
	fault.Reset()
	s2 := newTestServer(t, Config{})
	w = postJSON(t, s2.Handler(), "/explain", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusOK {
		t.Fatalf("recovered explain: %d %s", w.Code, w.Body.String())
	}
	resp = explainResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Planned {
		t.Fatalf("recovered server should plan: %s", w.Body.String())
	}
}
