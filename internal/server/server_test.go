package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// tinyGraph is the two-company control graph used by the golden tests:
// node 1 (ACME) controls node 2 (Bolt) through edge 3.
func tinyGraph() *pg.Graph {
	g := pg.New()
	a := g.AddNode([]string{"Business"}, pg.Props{"businessName": value.Str("ACME")})
	b := g.AddNode([]string{"Business"}, pg.Props{"businessName": value.Str("Bolt")})
	g.MustAddEdge(a.ID, b.ID, "CONTROLS", nil)
	return g
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewFromGraph(cfg, tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func errCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var resp struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("error body is not typed JSON: %v: %q", err, w.Body.String())
	}
	if resp.Error.Code == "" {
		t.Fatalf("error body has empty code: %q", w.Body.String())
	}
	return resp.Error.Code
}

const controlQuery = `(x: Business; businessName: n) [: CONTROLS] (y: Business), x != y`

func TestQueryGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/query", `{"query":"(x: Business; businessName: n) [: CONTROLS] (y: Business), x != y"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	golden := `{
  "columns": [
    "n",
    "x",
    "y"
  ],
  "rows": [
    {
      "n": "ACME",
      "x": 1,
      "y": 2
    }
  ],
  "count": 1,
  "total": 1
}
`
	if got := w.Body.String(); got != golden {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}
	if gen := w.Header().Get("X-KG-Generation"); gen != "1" {
		t.Errorf("generation header = %q, want 1", gen)
	}
	if c := w.Header().Get("X-KG-Cache"); c != "miss" {
		t.Errorf("cache header = %q, want miss (cache disabled still reports miss)", c)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	w := getPath(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Nodes      int    `json:"nodes"`
		Edges      int    `json:"edges"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Generation != 1 || resp.Nodes != 2 || resp.Edges != 1 {
		t.Errorf("unexpected healthz: %+v", resp)
	}
}

func TestQueryCacheHitIsBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 8})
	body := fmt.Sprintf(`{"query":%q}`, controlQuery)
	w1 := postJSON(t, s.Handler(), "/query", body)
	// Same pattern with scrambled whitespace must canonicalize to the same
	// cache key.
	w2 := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`,
		"(x: Business;  businessName: n)\n\t[: CONTROLS] (y: Business),\n x != y"))
	if w1.Header().Get("X-KG-Cache") != "miss" || w2.Header().Get("X-KG-Cache") != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit",
			w1.Header().Get("X-KG-Cache"), w2.Header().Get("X-KG-Cache"))
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Errorf("cache hit body differs from miss body")
	}
	// A different limit is a different key.
	w3 := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q,"limit":1}`, controlQuery))
	if w3.Header().Get("X-KG-Cache") != "miss" {
		t.Errorf("different limit should miss, got %q", w3.Header().Get("X-KG-Cache"))
	}
}

func TestQueryLimit(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/query", `{"query":"(x: Business; businessName: n)","limit":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.Total != 2 || len(resp.Rows) != 1 {
		t.Errorf("limit not applied: count=%d total=%d rows=%d", resp.Count, resp.Total, len(resp.Rows))
	}
}

func TestDecodeErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxBody: 256})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed JSON", `{"query":`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"query":"(x: Business)","nope":1}`, http.StatusBadRequest, "bad_request"},
		{"trailing data", `{"query":"(x: Business)"} extra`, http.StatusBadRequest, "bad_request"},
		{"empty query", `{"query":"  "}`, http.StatusBadRequest, "bad_request"},
		{"negative limit", `{"query":"(x: Business)","limit":-1}`, http.StatusBadRequest, "bad_request"},
		{"bad metalog", `{"query":"((("}`, http.StatusBadRequest, "bad_query"},
		{"no variables", `{"query":"(: Business)"}`, http.StatusInternalServerError, "eval_failed"},
		{"oversized body", `{"query":"` + strings.Repeat("x", 300) + `"}`, http.StatusRequestEntityTooLarge, "too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s.Handler(), "/query", tc.body)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if code := errCode(t, w); code != tc.code {
				t.Errorf("code %q, want %q", code, tc.code)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	w := getPath(t, s.Handler(), "/query")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", w.Code)
	}
	if code := errCode(t, w); code != "method_not_allowed" {
		t.Errorf("code %q", code)
	}
	if allow := w.Header().Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q", allow)
	}
}

func TestAdmissionControl(t *testing.T) {
	// Pool of 1, occupied directly: a request arriving while every worker
	// slot is held must be shed with a typed 429, not queued.
	s := newTestServer(t, Config{MaxInflight: 1})
	if !s.pool.tryAcquire() {
		t.Fatal("pool should have a free slot")
	}
	defer s.pool.release()
	w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if code := errCode(t, w); code != "saturated" {
		t.Errorf("code %q, want saturated", code)
	}
}

func TestQueryTimeout(t *testing.T) {
	s := newTestServer(t, Config{Timeout: time.Nanosecond})
	w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, controlQuery))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if code := errCode(t, w); code != "timeout" {
		t.Errorf("code %q, want timeout", code)
	}
}

func TestValidateEndpoints(t *testing.T) {
	noSchema := newTestServer(t, Config{})
	w := postJSON(t, noSchema.Handler(), "/validate", `{}`)
	if w.Code != http.StatusNotFound || errCode(t, w) != "no_schema" {
		t.Fatalf("no-schema validate: status %d body %s", w.Code, w.Body.String())
	}

	s := newTestServer(t, Config{Schema: supermodel.CompanyKG()})
	w = postJSON(t, s.Handler(), "/validate", ``)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Schema   string `json:"schema"`
		Strategy string `json:"strategy"`
		Conforms bool   `json:"conforms"`
		Count    int    `json:"count"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Schema != "CompanyKG" || resp.Strategy != "multi-label" {
		t.Errorf("unexpected validate response: %+v", resp)
	}
	// The tiny graph misses mandatory Company KG properties; the endpoint
	// must report that, not hide it.
	if resp.Conforms || resp.Count == 0 {
		t.Errorf("expected violations on the tiny graph, got %+v", resp)
	}

	// An unknown strategy is refused with the repository's own message,
	// which lists the strategies it has.
	w = postJSON(t, s.Handler(), "/validate", `{"strategy":"no-such-strategy"}`)
	if w.Code != http.StatusBadRequest || errCode(t, w) != "bad_request" ||
		!strings.Contains(w.Body.String(), `has no strategy \"no-such-strategy\" (have multi-label, child-edges)`) {
		t.Fatalf("bad strategy: status %d body %s", w.Code, w.Body.String())
	}
}

// TestUntranslatableSchemaFailsConstruction: SSST runs when the server is
// built, so a schema it cannot translate fails NewFromGraph instead of the
// first /validate.
func TestUntranslatableSchemaFailsConstruction(t *testing.T) {
	s := supermodel.NewSchema("Dangling", 9)
	s.MustAddNode("Company", false, supermodel.Attr("vat", supermodel.String).ID())
	s.Edges = append(s.Edges, &supermodel.Edge{Name: "SUPPLIES", From: "Company", To: "Nowhere"})
	if _, err := NewFromGraph(Config{Schema: s}, tinyGraph()); err == nil ||
		!strings.Contains(err.Error(), "unknown target node Nowhere") {
		t.Fatalf("NewFromGraph = %v, want the translation error", err)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Schema: supermodel.CompanyKG()})
	w := getPath(t, s.Handler(), "/schema")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp struct {
		Name       string              `json:"name"`
		GSL        string              `json:"gsl"`
		NodeLabels map[string][]string `json:"nodeLabels"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "CompanyKG" || resp.GSL == "" {
		t.Errorf("schema response missing design: %+v", resp.Name)
	}
	if _, ok := resp.NodeLabels["Business"]; !ok {
		t.Errorf("catalog layout missing Business label: %v", resp.NodeLabels)
	}
}

func TestReloadErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	// No configured source and no path.
	w := postJSON(t, s.Handler(), "/reload", ``)
	if w.Code != http.StatusInternalServerError || errCode(t, w) != "load_failed" {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	// Nonexistent path: typed error, generation untouched.
	w = postJSON(t, s.Handler(), "/reload", `{"path":"/nonexistent/kg.json"}`)
	if w.Code != http.StatusInternalServerError || errCode(t, w) != "load_failed" {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	if s.Generation() != 1 {
		t.Errorf("generation moved on failed reload: %d", s.Generation())
	}
}

func TestCacheLRU(t *testing.T) {
	c := &lru[resultKey, []byte]{}
	k := func(q string) resultKey { return resultKey{query: q} }
	c.put(k("a"), []byte("A"), 2)
	c.put(k("b"), []byte("B"), 2)
	if _, ok := c.get(k("a")); !ok {
		t.Fatal("a evicted too early")
	}
	c.put(k("c"), []byte("C"), 2) // evicts b (a was just used)
	if _, ok := c.get(k("b")); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.get(k("a")); !ok || string(got) != "A" {
		t.Errorf("a lost: %q %v", got, ok)
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	// Overwrite keeps one entry.
	c.put(k("a"), []byte("A2"), 2)
	if got, _ := c.get(k("a")); string(got) != "A2" {
		t.Errorf("overwrite lost: %q", got)
	}

	off := &lru[resultKey, []byte]{}
	off.put(k("x"), []byte("X"), 0)
	if _, ok := off.get(k("x")); ok {
		t.Error("disabled cache returned a hit")
	}
}

// TestCanonicalQuery: texts that differ only in layout and comments outside
// string constants are one pattern, and share one cache entry.
func TestCanonicalQuery(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 16})
	a := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`,
		"  (x: Business)\n\t[: CONTROLS]   (y: Business) % who controls whom\n"))
	b := postJSON(t, s.Handler(), "/query", `{"query":"(x:Business)[:CONTROLS](y:Business)"}`)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d: %s %s", a.Code, b.Code, a.Body.String(), b.Body.String())
	}
	if got := a.Header().Get("X-KG-Cache") + "," + b.Header().Get("X-KG-Cache"); got != "miss,hit" {
		t.Errorf("cache dispositions = %s, want miss,hit", got)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Errorf("one pattern, two answers:\n%s\n%s", a.Body.String(), b.Body.String())
	}
	if sn := s.current(); sn.results.len() != 1 || sn.plans.len() != 1 {
		t.Errorf("one pattern cached %d results and %d plans", sn.results.len(), sn.plans.len())
	}
}

// TestQueryKeyKeepsStringConstants: what identifies a query is its token
// stream, so two patterns that differ inside a string constant are two
// queries — to the result LRU, to the plan LRU alone (CacheSize 0), and to
// /explain. A key that collapsed the blanks answered the second pattern
// with the first one's rows.
func TestQueryKeyKeepsStringConstants(t *testing.T) {
	g := pg.New()
	for _, name := range []string{"A  B", "A  B", "A B"} {
		g.AddNode([]string{"Entity"}, pg.Props{"name": value.Str(name)})
	}
	const wide, narrow = `(x: Entity; name: "A  B")`, `(x: Entity; name: "A B")`
	for _, size := range []int{16, 0} {
		s, err := NewFromGraph(Config{CacheSize: size}, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, n := queryRows(t, s, wide); n != 2 {
			t.Fatalf("CacheSize %d: %s matched %d rows, want 2", size, wide, n)
		}
		w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, narrow))
		var resp queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("CacheSize %d: %v: %s", size, err, w.Body.String())
		}
		if resp.Count != 1 || w.Header().Get("X-KG-Cache") != "miss" {
			t.Fatalf("CacheSize %d: %s answered %d rows as a cache %s, want 1 row and a miss",
				size, narrow, resp.Count, w.Header().Get("X-KG-Cache"))
		}
	}

	s, err := NewFromGraph(Config{}, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pattern string
		rows    int
	}{{wide, 2}, {narrow, 1}} {
		w := postJSON(t, s.Handler(), "/explain", fmt.Sprintf(`{"query":%q,"run":true}`, tc.pattern))
		var resp explainResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("explain %s: %v: %s", tc.pattern, err, w.Body.String())
		}
		if resp.ActualRows == nil || *resp.ActualRows != tc.rows || w.Header().Get("X-KG-Cache") != "miss" {
			t.Fatalf("explain %s: %s (plan cache %s), want %d actual rows from a plan of its own",
				tc.pattern, w.Body.String(), w.Header().Get("X-KG-Cache"), tc.rows)
		}
	}
}

func TestPool(t *testing.T) {
	p := newPool(2)
	if !p.tryAcquire() || !p.tryAcquire() {
		t.Fatal("two slots expected")
	}
	if p.tryAcquire() {
		t.Fatal("third acquire should fail")
	}
	if p.inflight() != 2 {
		t.Errorf("inflight = %d", p.inflight())
	}
	done := make(chan struct{})
	go func() { p.drain(); close(done) }()
	select {
	case <-done:
		t.Fatal("drain returned with slots held")
	case <-time.After(20 * time.Millisecond):
	}
	p.release()
	p.release()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not return after release")
	}
}

func TestConcurrentQueriesShareSnapshot(t *testing.T) {
	// The catalog-clone discipline: concurrent queries with different
	// variable sets against one shared snapshot must not interfere (this is
	// the regression test for sharing the snapshot catalog un-cloned).
	s := newTestServer(t, Config{MaxInflight: 8})
	queries := []string{
		`(x: Business; businessName: n) [: CONTROLS] (y: Business), x != y`,
		`(a: Business; businessName: m)`,
		`(p: Business) [e: CONTROLS] (q: Business)`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, q))
		if w.Code != http.StatusOK {
			t.Fatalf("probe %d: %s", w.Code, w.Body.String())
		}
		want[i] = w.Body.String()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (g + i) % len(queries)
				w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, queries[qi]))
				if w.Code == http.StatusTooManyRequests {
					continue // shed is a valid outcome
				}
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", w.Code, w.Body.String())
					return
				}
				if w.Body.String() != want[qi] {
					errs <- fmt.Sprintf("query %d result drifted under concurrency", qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestQueryAbsentLayouts: a pattern naming a property the snapshot's shared
// database has no column for is refused by QueryDB and re-extracted per
// request (metalog.ErrStaleDatabase → Prepared.QueryView); one naming an
// absent label needs no column and is served from the shared database. Either
// way the bytes equal one-shot metalog.Query's and a planner-off, cache-less
// server's, and the result is cached like any other.
func TestQueryAbsentLayouts(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 8})
	ref := newTestServer(t, Config{PlannerOff: true})
	for _, tc := range []struct {
		query      string
		total      int
		reextracts int64
	}{
		{`(x: Business; nope: v) [: CONTROLS] (y: Business)`, 1, 1},
		{`(x: Business) [: CONTROLS; nope: v] (y: Business)`, 1, 1},
		{`(x: Business) [: NO_SUCH_EDGE] (y: Business)`, 0, 0},
		{`(x: NoSuchLabel; businessName: v)`, 0, 0},
	} {
		body := fmt.Sprintf(`{"query":%q}`, tc.query)
		delta := countersSince()
		w := postJSON(t, s.Handler(), "/query", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.query, w.Code, w.Body.String())
		}
		if d := delta().QueryReextracts; d != tc.reextracts {
			t.Errorf("%s: re-extractions = %d, want %d", tc.query, d, tc.reextracts)
		}
		var resp queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Total != tc.total {
			t.Fatalf("%s: total = %d: %s", tc.query, resp.Total, w.Body.String())
		}
		for _, c := range resp.Columns {
			if c == "v" {
				t.Fatalf("%s: absent property surfaced as column: %v", tc.query, resp.Columns)
			}
		}
		rows, err := metalog.Query(tinyGraph().Freeze(), tc.query, vadalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, aerr := marshalBody(buildQueryResponse(rows, 0))
		if aerr != nil {
			t.Fatal(aerr)
		}
		if w.Body.String() != string(want) {
			t.Errorf("%s: served\n%s\none-shot Query\n%s", tc.query, w.Body.String(), want)
		}
		if wr := postJSON(t, ref.Handler(), "/query", body); wr.Body.String() != w.Body.String() {
			t.Errorf("%s: planner-off server answered\n%s\nwant\n%s", tc.query, wr.Body.String(), w.Body.String())
		}
		// Second request is served from the cache, byte-identical.
		w2 := postJSON(t, s.Handler(), "/query", body)
		if got := w2.Header().Get("X-KG-Cache"); got != "hit" {
			t.Fatalf("%s: X-KG-Cache = %q, want hit", tc.query, got)
		}
		if w2.Body.String() != w.Body.String() {
			t.Fatalf("%s: result not cached bit-identically", tc.query)
		}
	}
}
