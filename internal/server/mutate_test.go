package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/pg"
	"repro/internal/testutil"
	"repro/internal/value"
)

// mutateBase is a small shareholding graph with a fully known layout:
// Business nodes (fiscalCode) connected by OWNS edges (percentage).
func mutateBase(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	a := g.AddNode([]string{"Business"}, pg.Props{"fiscalCode": value.Str("c1")})
	b := g.AddNode([]string{"Business"}, pg.Props{"fiscalCode": value.Str("c2")})
	if _, err := g.AddEdge(a.ID, b.ID, "OWNS", pg.Props{"percentage": value.FloatV(0.6)}); err != nil {
		t.Fatal(err)
	}
	return g
}

func queryRows(t *testing.T, s *Server, q string) (string, int) {
	t.Helper()
	w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, q))
	if w.Code != http.StatusOK {
		t.Fatalf("query %q: %d %s", q, w.Code, w.Body.String())
	}
	var resp struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return w.Body.String(), resp.Count
}

// TestMutateEndToEnd drives the live write path over HTTP: batches advance
// the generation, reads merge the overlay with no gap, the incremental and
// fallback fact-maintenance paths both serve correct query results, and
// compaction folds everything into a frozen generation whose persisted
// snapshot file reproduces the same answers.
func TestMutateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFromGraph(Config{CacheSize: 8, CompactDir: dir}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	const all = `(x: Business; fiscalCode: c)`

	if _, n := queryRows(t, s, all); n != 2 {
		t.Fatalf("baseline rows = %d, want 2", n)
	}

	// Batch 1: stays inside the catalog — the incremental path.
	w := postJSON(t, s.Handler(), "/mutate", `{"ops":[
		{"op":"add_node","name":"c3","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"c3"}}},
		{"op":"add_edge","from":{"name":"c3"},"to":{"id":1},"label":"OWNS","props":{"percentage":{"kind":"float","float":0.4}}}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", w.Code, w.Body.String())
	}
	var info MutateInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || !info.Incremental || info.AddedNodes != 1 || info.AddedEdges != 1 {
		t.Fatalf("unexpected mutate info: %+v", info)
	}
	if got := w.Header().Get("X-KG-Generation"); got != "2" {
		t.Fatalf("generation header %q", got)
	}
	if _, n := queryRows(t, s, all); n != 3 {
		t.Fatalf("rows after add = %d, want 3", n)
	}
	if hw := getPath(t, s.Handler(), "/healthz"); hw.Code != http.StatusOK {
		t.Fatal("unhealthy after mutate")
	} else {
		var h struct{ Nodes, Edges int }
		if err := json.Unmarshal(hw.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		if h.Nodes != 3 || h.Edges != 2 {
			t.Fatalf("healthz counts %+v", h)
		}
	}

	// Batch 2: a new label grows the catalog — the full re-extract fallback.
	w = postJSON(t, s.Handler(), "/mutate", `{"ops":[
		{"op":"add_node","labels":["Person"],"props":{"fiscalCode":{"kind":"string","str":"p1"}}}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Incremental {
		t.Fatal("catalog-growing batch reported incremental")
	}
	if _, n := queryRows(t, s, `(p: Person; fiscalCode: c)`); n != 1 {
		t.Fatalf("Person rows = %d, want 1", n)
	}

	// Batch 3: retraction — the removed node takes its edge along.
	w = postJSON(t, s.Handler(), "/mutate", `{"ops":[{"op":"remove_node","node":{"id":2}}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", w.Code, w.Body.String())
	}
	if _, n := queryRows(t, s, all); n != 2 {
		t.Fatalf("rows after remove = %d, want 2", n)
	}
	if _, n := queryRows(t, s, `(x: Business) [: OWNS] (y: Business)`); n != 1 {
		t.Fatalf("OWNS rows after remove = %d, want 1", n)
	}

	// A bad batch must not advance anything: same generation, same bytes.
	before, _ := queryRows(t, s, all)
	genBefore := s.Generation()
	w = postJSON(t, s.Handler(), "/mutate", `{"ops":[{"op":"remove_node","node":{"id":999}}]}`)
	if w.Code != http.StatusBadRequest || errCode(t, w) != "bad_mutation" {
		t.Fatalf("bad batch: %d %s", w.Code, w.Body.String())
	}
	if s.Generation() != genBefore {
		t.Fatal("generation moved on failed batch")
	}
	if after, _ := queryRows(t, s, all); after != before {
		t.Fatal("serving view disturbed by failed batch")
	}

	// Compaction folds the overlay, persists the generation, and the
	// persisted snapshot answers identically.
	preCompact, _ := queryRows(t, s, all)
	w = postJSON(t, s.Handler(), "/compact", ``)
	if w.Code != http.StatusOK {
		t.Fatalf("compact: %d %s", w.Code, w.Body.String())
	}
	var ci CompactInfo
	if err := json.Unmarshal(w.Body.Bytes(), &ci); err != nil {
		t.Fatal(err)
	}
	if !ci.Compacted || ci.Path == "" {
		t.Fatalf("unexpected compact info: %+v", ci)
	}
	if _, err := os.Stat(ci.Path); err != nil {
		t.Fatalf("compacted snapshot not persisted: %v", err)
	}
	if got, _ := queryRows(t, s, all); got != preCompact {
		t.Fatal("compaction changed query results")
	}
	replica, err := New(Config{Source: ci.Path, CacheSize: 0})
	if err != nil {
		t.Fatalf("opening compacted snapshot: %v", err)
	}
	if got, _ := queryRows(t, replica, all); got != preCompact {
		t.Fatal("compacted snapshot file answers differently")
	}

	// A second compact is a no-op; mutations keep working on the new base.
	genBefore = s.Generation()
	w = postJSON(t, s.Handler(), "/compact", ``)
	if w.Code != http.StatusOK {
		t.Fatalf("compact: %d %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ci); err != nil {
		t.Fatal(err)
	}
	if ci.Compacted || ci.Generation != genBefore {
		t.Fatalf("no-op compact moved the generation: %+v", ci)
	}
	w = postJSON(t, s.Handler(), "/mutate", `{"ops":[
		{"op":"add_node","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"c9"}}}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate after compact: %d %s", w.Code, w.Body.String())
	}
	if _, n := queryRows(t, s, all); n != 3 {
		t.Fatalf("rows after post-compact add = %d, want 3", n)
	}
}

// TestMutateDecodeErrors pins the typed-error surface of /mutate.
func TestMutateDecodeErrors(t *testing.T) {
	s, err := NewFromGraph(Config{}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body, code string
	}{
		{"malformed JSON", `{"ops":`, "bad_request"},
		{"unknown field", `{"opz":[]}`, "bad_request"},
		{"empty batch", `{"ops":[]}`, "bad_request"},
		{"unknown op", `{"ops":[{"op":"explode"}]}`, "bad_request"},
		{"missing value", `{"ops":[{"op":"set_node_prop","node":{"id":1},"key":"k"}]}`, "bad_request"},
		{"bad value kind", `{"ops":[{"op":"add_node","props":{"k":{"kind":"complex"}}}]}`, "bad_request"},
		{"unknown ref", `{"ops":[{"op":"add_edge","from":{"id":77},"to":{"id":1},"label":"OWNS"}]}`, "bad_mutation"},
		{"duplicate handle", `{"ops":[{"op":"add_node","name":"h"},{"op":"add_node","name":"h"}]}`, "bad_mutation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen := s.Generation()
			w := postJSON(t, s.Handler(), "/mutate", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			if got := errCode(t, w); got != tc.code {
				t.Errorf("code %q, want %q", got, tc.code)
			}
			if s.Generation() != gen {
				t.Error("generation moved on rejected batch")
			}
		})
	}
}

// TestChaosMutateSweep extends the chaos harness to the write path's fault
// sites (overlay/apply, overlay/compact, and pg/bulkload, which fires inside
// the compaction's snapshot build) in error and panic modes. Per
// injection: a typed JSON error, a bit-identical serving view, an unmoved
// generation — and a clean retry that succeeds.
func TestChaosMutateSweep(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	defer fault.Reset()

	const all = `(x: Business; fiscalCode: c)`
	batch := `{"ops":[{"op":"add_node","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"cx"}}}]}`

	cases := []struct {
		site     string
		mode     fault.Mode
		endpoint string
		body     string
		wantCode string
	}{
		{"overlay/apply", fault.ModeError, "/mutate", batch, "injected"},
		{"overlay/apply", fault.ModePanic, "/mutate", batch, "panic"},
		{"overlay/compact", fault.ModeError, "/compact", "", "injected"},
		{"overlay/compact", fault.ModePanic, "/compact", "", "panic"},
		{"pg/bulkload", fault.ModeError, "/compact", "", "injected"},
		{"pg/bulkload", fault.ModePanic, "/compact", "", "panic"},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%s", tc.site, tc.mode)
		t.Run(name, func(t *testing.T) {
			fault.Reset()
			s, err := NewFromGraph(Config{CacheSize: 0}, mutateBase(t))
			if err != nil {
				t.Fatal(err)
			}
			// Give /compact an overlay to fold.
			if w := postJSON(t, s.Handler(), "/mutate", batch); w.Code != http.StatusOK {
				t.Fatalf("seeding batch: %d %s", w.Code, w.Body.String())
			}
			baseline, _ := queryRows(t, s, all)
			genBefore := s.Generation()

			if err := fault.Arm(tc.site, fault.Plan{Mode: tc.mode}); err != nil {
				t.Fatal(err)
			}
			w := postJSON(t, s.Handler(), tc.endpoint, tc.body)
			if fault.Fired(tc.site) == 0 {
				t.Fatalf("site %s never fired", tc.site)
			}
			if w.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
			}
			if got := errCode(t, w); got != tc.wantCode {
				t.Errorf("code %q, want %q", got, tc.wantCode)
			}
			fault.Reset()

			// The failed operation left the serving generation untouched —
			// same generation, bit-identical query bytes.
			if s.Generation() != genBefore {
				t.Fatalf("generation moved under fault: %d -> %d", genBefore, s.Generation())
			}
			if got, _ := queryRows(t, s, all); got != baseline {
				t.Fatal("serving view disturbed by injected fault")
			}

			// A clean retry succeeds and moves the generation forward only.
			w = postJSON(t, s.Handler(), tc.endpoint, tc.body)
			if w.Code != http.StatusOK {
				t.Fatalf("clean retry: %d %s", w.Code, w.Body.String())
			}
			if s.Generation() < genBefore {
				t.Fatal("generation went backwards")
			}
		})
	}
}

// TestChaosCompactFaultKeepsOverlayServing holds a persistent compaction
// fault while mutation batches keep landing: the overlay generation keeps
// serving every write and read, and once the fault clears, one compaction
// folds the accumulated overlay.
func TestChaosCompactFaultKeepsOverlayServing(t *testing.T) {
	defer fault.Reset()
	s, err := NewFromGraph(Config{CacheSize: 0}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	const all = `(x: Business; fiscalCode: c)`

	if err := fault.Arm("overlay/compact", fault.Plan{Mode: fault.ModeError, Times: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"ops":[{"op":"add_node","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"b%d"}}}]}`, i)
		if w := postJSON(t, s.Handler(), "/mutate", body); w.Code != http.StatusOK {
			t.Fatalf("mutate %d under compact fault: %d %s", i, w.Code, w.Body.String())
		}
		if w := postJSON(t, s.Handler(), "/compact", ""); w.Code != http.StatusInternalServerError {
			t.Fatalf("compact %d should fail: %d", i, w.Code)
		}
		if _, n := queryRows(t, s, all); n != 2+i+1 {
			t.Fatalf("overlay generation stopped serving after failed compact %d", i)
		}
	}
	fault.Reset()

	genBefore := s.Generation()
	w := postJSON(t, s.Handler(), "/compact", "")
	if w.Code != http.StatusOK {
		t.Fatalf("clean compact: %d %s", w.Code, w.Body.String())
	}
	if s.Generation() != genBefore+1 {
		t.Fatalf("generation = %d, want %d", s.Generation(), genBefore+1)
	}
	if _, n := queryRows(t, s, all); n != 5 {
		t.Fatalf("rows after compact = %d, want 5", n)
	}
}

// TestServeSoakMutate is the write-path soak: 64 reader goroutines against
// one server while a writer streams mutation batches and a compactor
// periodically folds the overlay (run under -race; make test-race includes
// it). Readers tolerate result drift — the data is genuinely changing — but
// every response must be well-formed, the generation monotonic, and no
// goroutine may leak.
func TestServeSoakMutate(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()

	s, err := NewFromGraph(Config{CacheSize: 32, MaxInflight: 8}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	runMutateSoak(t, s)
}

func runMutateSoak(t *testing.T, s *Server) {
	t.Helper()
	const (
		readers    = 64
		opsPerR    = 25
		writeOps   = 40
		compactEvr = 8 // writer compacts every N batches
	)
	queries := []string{
		`(x: Business; fiscalCode: c)`,
		`(x: Business) [: OWNS; percentage: p] (y: Business)`,
	}

	var (
		wg        sync.WaitGroup
		queriesOK atomic.Int64
		shed      atomic.Int64
		lastGen   atomic.Uint64
	)
	lastGen.Store(s.Generation())
	errs := make(chan string, readers+1)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	checkGen := func() bool {
		for {
			prev := lastGen.Load()
			cur := s.Generation()
			if cur < prev {
				fail("generation went backwards: %d -> %d", prev, cur)
				return false
			}
			if cur == prev || lastGen.CompareAndSwap(prev, cur) {
				return true
			}
		}
	}

	// The writer: streams batches that add a node + an edge, retracts some of
	// its own creations (via the assigned-OID report), and periodically folds
	// the overlay. Writes are serialized by the server; each one advances the
	// generation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mine []int64 // OIDs this writer created and may retract
		for i := 0; i < writeOps; i++ {
			body := fmt.Sprintf(`{"ops":[
				{"op":"add_node","name":"w","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"w%d"}}},
				{"op":"add_edge","from":{"name":"w"},"to":{"id":1},"label":"OWNS","props":{"percentage":{"kind":"float","float":0.1}}}
			]}`, i)
			w := postJSON(t, s.Handler(), "/mutate", body)
			if w.Code != http.StatusOK {
				fail("writer batch %d: %d %s", i, w.Code, w.Body.String())
				return
			}
			var info MutateInfo
			if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
				fail("writer batch %d: %v", i, err)
				return
			}
			if id, ok := info.Assigned["w"]; ok {
				mine = append(mine, id)
			}
			// Retraction-heavy interleaving: every third batch removes an
			// earlier creation (cascading its edge).
			if i%3 == 2 && len(mine) > 1 {
				id := mine[0]
				mine = mine[1:]
				rb := fmt.Sprintf(`{"ops":[{"op":"remove_node","node":{"id":%d}}]}`, id)
				if w := postJSON(t, s.Handler(), "/mutate", rb); w.Code != http.StatusOK {
					fail("writer retract %d: %d %s", i, w.Code, w.Body.String())
					return
				}
			}
			if i%compactEvr == compactEvr-1 {
				if w := postJSON(t, s.Handler(), "/compact", ""); w.Code != http.StatusOK {
					fail("writer compact %d: %d %s", i, w.Code, w.Body.String())
					return
				}
			}
			if !checkGen() {
				return
			}
		}
	}()

	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			for op := 0; op < opsPerR; op++ {
				switch (ri + op) % 8 {
				case 0:
					if w := getPath(t, s.Handler(), "/healthz"); w.Code != http.StatusOK {
						fail("healthz %d", w.Code)
						return
					}
				case 1:
					w := getPath(t, s.Handler(), "/stats")
					if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
						fail("stats %d: %s", w.Code, w.Body.String())
						return
					}
				default:
					q := queries[(ri+op)%len(queries)]
					w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, q))
					switch w.Code {
					case http.StatusTooManyRequests:
						shed.Add(1)
					case http.StatusOK:
						// The data is changing under us, so no fixed expected
						// body — but the response must be well-formed and
						// internally consistent.
						var resp struct {
							Rows  []map[string]any `json:"rows"`
							Count int              `json:"count"`
						}
						if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
							fail("malformed query body: %v", err)
							return
						}
						if resp.Count != len(resp.Rows) {
							fail("count %d != rows %d", resp.Count, len(resp.Rows))
							return
						}
						queriesOK.Add(1)
					default:
						fail("query %d: %s", w.Code, w.Body.String())
						return
					}
				}
				if !checkGen() {
					return
				}
			}
		}(ri)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if queriesOK.Load() == 0 {
		t.Fatal("no query ever succeeded under the write soak")
	}

	// Quiesced end state: the served view answers identically to a fresh
	// server rebuilt from a compaction of that same view — no drift between
	// the incremental lineage and ground truth.
	if w := postJSON(t, s.Handler(), "/compact", ""); w.Code != http.StatusOK {
		t.Fatalf("final compact: %d %s", w.Code, w.Body.String())
	}
	final, _ := queryRows(t, s, queries[0])
	sn := s.current()
	ref, err := NewFromGraph(Config{CacheSize: 0}, sn.frozen.Thaw())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := queryRows(t, ref, queries[0]); got != final {
		t.Fatal("incremental lineage drifted from a from-scratch rebuild")
	}
	t.Logf("mutate soak: %d ok queries, %d shed, final generation %d",
		queriesOK.Load(), shed.Load(), s.Generation())
}
