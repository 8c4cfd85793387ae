package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/testutil"
)

// startE2E generates a dictionary the way cmd/kggen does, writes it to disk,
// and serves it over a real TCP listener — the full kggen → load → serve
// pipeline. It returns the base URL, the server, and an idempotent stop
// function (also registered as a cleanup fallback).
func startE2E(t *testing.T, cfg Config, companies int, seed int64) (string, *Server, func()) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "kg.json")
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(companies, seed))
	g := topo.Shareholding()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Source = path
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-done; err != http.ErrServerClosed {
				t.Errorf("serve returned %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return "http://" + ln.Addr().String(), s, stop
}

// stripPlannerSection removes the live "planner" block from a /stats body so
// byte-identity assertions compare only the per-generation graph figures.
func stripPlannerSection(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshaling stats: %v", err)
	}
	delete(m, "planner")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func httpPost(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func httpGet(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

const e2eQuery = `(x: Business; fiscalCode: c) [: OWNS; percentage: p] (y: Business), p > 0.5`

// TestE2EPipeline runs the full serving lifecycle over a real listener:
// generate → load → query → reload → query, asserting the snapshot swap is
// invisible in the response bytes (bit-identical) while the generation
// header advances.
func TestE2EPipeline(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	func() {
		base, srv, stop := startE2E(t, Config{CacheSize: 64, Schema: supermodel.CompanyKG()}, 50, 7)
		defer stop()

		// Health: generation 1, sizes from the generator.
		code, _, body := httpGet(t, base+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz %d: %s", code, body)
		}
		var health struct {
			Generation uint64 `json:"generation"`
			Nodes      int    `json:"nodes"`
			Edges      int    `json:"edges"`
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
		if health.Generation != 1 || health.Nodes == 0 || health.Edges == 0 {
			t.Fatalf("unexpected health %+v", health)
		}

		// Query against generation 1.
		qbody := fmt.Sprintf(`{"query":%q}`, e2eQuery)
		code, hdr1, resp1 := httpPost(t, base+"/query", qbody)
		if code != http.StatusOK {
			t.Fatalf("query %d: %s", code, resp1)
		}
		if hdr1.Get("X-KG-Generation") != "1" || hdr1.Get("X-KG-Cache") != "miss" {
			t.Fatalf("headers: gen=%q cache=%q", hdr1.Get("X-KG-Generation"), hdr1.Get("X-KG-Cache"))
		}
		var qr queryResponse
		if err := json.Unmarshal(resp1, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Total == 0 {
			t.Fatal("expected majority-ownership matches in the generated graph")
		}

		// Stats endpoint returns the §2.1 figures for the same snapshot.
		code, _, stats1 := httpGet(t, base+"/stats")
		if code != http.StatusOK {
			t.Fatalf("stats %d: %s", code, stats1)
		}

		// Reload the same file: a full off-line rebuild and atomic swap.
		code, _, rbody := httpPost(t, base+"/reload", `{}`)
		if code != http.StatusOK {
			t.Fatalf("reload %d: %s", code, rbody)
		}
		var rinfo ReloadInfo
		if err := json.Unmarshal(rbody, &rinfo); err != nil {
			t.Fatal(err)
		}
		if rinfo.Generation != 2 || rinfo.Nodes != health.Nodes || rinfo.Edges != health.Edges {
			t.Fatalf("unexpected reload info %+v", rinfo)
		}
		if srv.Generation() != 2 {
			t.Fatalf("server generation = %d", srv.Generation())
		}

		// Same query against generation 2: recomputed (the cache key moved
		// with the generation) yet bit-identical — the acceptance criterion
		// for snapshot swaps of identical data.
		code, hdr2, resp2 := httpPost(t, base+"/query", qbody)
		if code != http.StatusOK {
			t.Fatalf("query after reload %d: %s", code, resp2)
		}
		if hdr2.Get("X-KG-Generation") != "2" || hdr2.Get("X-KG-Cache") != "miss" {
			t.Fatalf("headers after reload: gen=%q cache=%q", hdr2.Get("X-KG-Generation"), hdr2.Get("X-KG-Cache"))
		}
		if !bytes.Equal(resp1, resp2) {
			t.Errorf("query responses differ across snapshot swap:\nbefore: %s\nafter: %s", resp1, resp2)
		}

		// Stats are likewise identical across the swap — modulo the live
		// planner section, whose cache and run counters moved with the
		// intervening query by design.
		code, _, stats2 := httpGet(t, base+"/stats")
		if code != http.StatusOK {
			t.Fatalf("stats after reload %d", code)
		}
		if !bytes.Equal(stripPlannerSection(t, stats1), stripPlannerSection(t, stats2)) {
			t.Errorf("stats differ across snapshot swap")
		}

		// Validation works over the network too (the generated shareholding
		// projection does not conform to the full Figure 4 design — the
		// endpoint must say so deterministically).
		code, _, v1 := httpPost(t, base+"/validate", `{}`)
		if code != http.StatusOK {
			t.Fatalf("validate %d: %s", code, v1)
		}
		code, _, v2 := httpPost(t, base+"/validate", `{}`)
		if code != http.StatusOK || !bytes.Equal(v1, v2) {
			t.Errorf("validate not deterministic")
		}
	}()
}

// TestE2EGracefulShutdown proves draining: a request in flight when
// Shutdown starts completes with 200, and the listener refuses new
// connections afterwards.
func TestE2EGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kg.json")
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(30, 11))
	g := topo.Shareholding()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := New(Config{Source: path})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Park the first request inside the handler for long enough that
	// Shutdown provably overlaps it.
	defer fault.Reset()
	if err := fault.Arm("server/handler", fault.Plan{
		Mode: fault.ModeDelay, Delay: 150 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Launch a query and immediately start shutting down.
	result := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"query":%q}`, e2eQuery)))
		if err != nil {
			result <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach the handler
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	if code := <-result; code != http.StatusOK {
		t.Errorf("in-flight request got %d, want 200", code)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
