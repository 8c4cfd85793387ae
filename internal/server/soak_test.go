package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/testutil"
)

// TestServeSoak is the concurrency soak: 64 goroutines issuing a mix of
// query, stats, health and reload requests against one server (run it under
// -race; make test-race reruns it twice). Invariants:
//
//   - every response is 200 or a typed 429 from admission control;
//   - every 200 query body is bit-identical to the single-threaded
//     reference for that pattern — cache hits equal misses in results, and
//     snapshot swaps mid-traffic never surface a torn or mixed result;
//   - the generation only moves forward;
//   - no goroutines leak once the storm is over.
func TestServeSoak(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()

	dir := t.TempDir()
	path := filepath.Join(dir, "kg.json")
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(30, 21))
	g := topo.Shareholding()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	queries := []string{
		`(x: Business; fiscalCode: c) [: OWNS; percentage: p] (y: Business), p > 0.5`,
		`(x: PhysicalPerson; fiscalCode: c) [: OWNS] (y: Business)`,
		`(x: Entity) [: OWNS; percentage: p] (y: Business), p > 0.9`,
		`(x: Business; fiscalCode: c)`,
	}

	// Reference bodies from an isolated, cache-less server over the same
	// data: the ground truth every concurrent response must match.
	ref, err := NewFromGraph(Config{CacheSize: 0, MaxInflight: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		w := postJSON(t, ref.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, q))
		if w.Code != http.StatusOK {
			t.Fatalf("reference query failed %d: %s", w.Code, w.Body.String())
		}
		want[q] = w.Body.String()
	}

	s, err := New(Config{Source: path, CacheSize: 32, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 64
	const opsPerG = 30
	var (
		wg                   sync.WaitGroup
		hits, misses, shed   atomic.Int64
		queriesOK, reloadsOK atomic.Int64
		lastGen              atomic.Uint64
	)
	lastGen.Store(s.Generation())
	errs := make(chan string, goroutines)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	delta := countersSince()

	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for op := 0; op < opsPerG; op++ {
				// Deterministic mixed schedule: mostly queries, some stats
				// and health probes, an occasional reload.
				switch (gi + op) % 16 {
				case 0:
					if gi%8 == 0 { // 8 reloading goroutines
						w := postJSON(t, s.Handler(), "/reload", `{}`)
						if w.Code != http.StatusOK {
							fail("reload failed %d: %s", w.Code, w.Body.String())
							return
						}
						reloadsOK.Add(1)
					}
				case 1:
					w := getPath(t, s.Handler(), "/stats")
					if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
						fail("stats %d: %s", w.Code, w.Body.String())
						return
					}
				case 2:
					w := getPath(t, s.Handler(), "/healthz")
					if w.Code != http.StatusOK {
						fail("healthz %d", w.Code)
						return
					}
				default:
					q := queries[(gi+op)%len(queries)]
					w := postJSON(t, s.Handler(), "/query", fmt.Sprintf(`{"query":%q}`, q))
					switch w.Code {
					case http.StatusTooManyRequests:
						shed.Add(1)
					case http.StatusOK:
						queriesOK.Add(1)
						if got := w.Body.String(); got != want[q] {
							fail("response drifted under concurrency for %q", q)
							return
						}
						switch w.Header().Get("X-KG-Cache") {
						case "hit":
							hits.Add(1)
						case "miss":
							misses.Add(1)
						default:
							fail("missing cache header")
							return
						}
					default:
						fail("query %d: %s", w.Code, w.Body.String())
						return
					}
				}
				// Generation must never go backwards as observed by any
				// single goroutine.
				for {
					prev := lastGen.Load()
					cur := s.Generation()
					if cur < prev {
						fail("generation went backwards: %d -> %d", prev, cur)
						return
					}
					if cur == prev || lastGen.CompareAndSwap(prev, cur) {
						break
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if queriesOK.Load() == 0 {
		t.Fatal("no query ever succeeded")
	}
	if misses.Load() == 0 {
		t.Error("no cache miss observed")
	}
	if hits.Load() == 0 {
		t.Error("no cache hit observed — cache never warmed under soak")
	}
	t.Logf("soak: %d ok queries (%d hits, %d misses), %d shed, %d reloads, final generation %d",
		queriesOK.Load(), hits.Load(), misses.Load(), shed.Load(), reloadsOK.Load(), s.Generation())

	// The process-wide counters moved consistently with what we observed.
	d := delta()
	if d.CacheHits < hits.Load() {
		t.Errorf("counter hits %d < observed %d", d.CacheHits, hits.Load())
	}
	if d.Reloads < reloadsOK.Load() {
		t.Errorf("counter reloads %d < observed %d", d.Reloads, reloadsOK.Load())
	}
}
