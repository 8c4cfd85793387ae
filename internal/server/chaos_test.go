package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/testutil"
)

// The serving-layer chaos sweep, extending the PR 3 harness to the three
// server sites (server/load, server/freeze-swap, server/handler) in error
// and panic modes. Invariants per injection:
//
//   - the client sees a typed JSON error ({"error":{"code":...}}), never a
//     process crash or free-text 500;
//   - the snapshot generation never goes backwards, and a failed reload
//     leaves the serving snapshot fully functional;
//   - no goroutines leak.

func chaosServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "kg.json")
	g := fingraph.GenerateTopology(fingraph.DefaultConfig(10, 3)).Shareholding()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := New(Config{Source: path, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestChaosServerSweep(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	defer fault.Reset()

	s, _ := chaosServer(t)
	query := `{"query":"(x: Business; fiscalCode: c) [: OWNS] (y: Business)"}`

	type inject struct {
		site     string
		mode     fault.Mode
		endpoint string // endpoint whose path crosses the site
		method   string
		body     string
		wantCode string // expected typed error code
	}
	cases := []inject{
		{"server/load", fault.ModeError, "/reload", http.MethodPost, `{}`, "injected"},
		{"server/load", fault.ModePanic, "/reload", http.MethodPost, `{}`, "panic"},
		{"server/freeze-swap", fault.ModeError, "/reload", http.MethodPost, `{}`, "injected"},
		{"server/freeze-swap", fault.ModePanic, "/reload", http.MethodPost, `{}`, "panic"},
		{"server/handler", fault.ModeError, "/query", http.MethodPost, query, "injected"},
		{"server/handler", fault.ModePanic, "/query", http.MethodPost, query, "panic"},
		{"server/handler", fault.ModeError, "/stats", http.MethodGet, "", "injected"},
		{"server/handler", fault.ModeError, "/reload", http.MethodPost, `{}`, "injected"},
	}

	for _, tc := range cases {
		name := fmt.Sprintf("%s/%s@%s", tc.site, tc.mode, tc.endpoint)
		t.Run(name, func(t *testing.T) {
			genBefore := s.Generation()
			fault.Reset()
			if err := fault.Arm(tc.site, fault.Plan{Mode: tc.mode}); err != nil {
				t.Fatal(err)
			}

			var w interface {
				Result() *http.Response
			}
			switch tc.method {
			case http.MethodGet:
				w = getPath(t, s.Handler(), tc.endpoint)
			default:
				w = postJSON(t, s.Handler(), tc.endpoint, tc.body)
			}
			resp := w.Result()
			defer resp.Body.Close()
			if fault.Fired(tc.site) == 0 {
				t.Fatalf("site %s never fired", tc.site)
			}
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500", resp.StatusCode)
			}
			var typed struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&typed); err != nil {
				t.Fatalf("error body is not typed JSON: %v", err)
			}
			if typed.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message %q)", typed.Error.Code, tc.wantCode, typed.Error.Message)
			}

			// Generation is monotonic and the failed operation left the
			// server fully functional.
			fault.Reset()
			if got := s.Generation(); got < genBefore {
				t.Fatalf("generation went backwards: %d -> %d", genBefore, got)
			}
			if hw := getPath(t, s.Handler(), "/healthz"); hw.Code != http.StatusOK {
				t.Fatalf("server unhealthy after injection: %d", hw.Code)
			}
			if qw := postJSON(t, s.Handler(), "/query", query); qw.Code != http.StatusOK {
				t.Fatalf("query broken after injection: %d %s", qw.Code, qw.Body.String())
			}
		})
	}
}

// TestChaosServerReloadKeepsServing drives traffic while reloads fail with
// injected faults: the serving snapshot must answer every request from the
// pre-fault generation, and a subsequent clean reload advances exactly one
// generation.
func TestChaosServerReloadKeepsServing(t *testing.T) {
	defer fault.Reset()
	s, _ := chaosServer(t)
	query := `{"query":"(x: Business; fiscalCode: c) [: OWNS] (y: Business)"}`

	w := postJSON(t, s.Handler(), "/query", query)
	if w.Code != http.StatusOK {
		t.Fatalf("baseline query: %d", w.Code)
	}
	baseline := w.Body.String()
	genBefore := s.Generation()

	// Three consecutive failing reloads (error on every hit).
	if err := fault.Arm("server/freeze-swap", fault.Plan{Mode: fault.ModeError, Times: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if rw := postJSON(t, s.Handler(), "/reload", `{}`); rw.Code != http.StatusInternalServerError {
			t.Fatalf("reload %d: status %d", i, rw.Code)
		}
		if qw := postJSON(t, s.Handler(), "/query", query); qw.Code != http.StatusOK || qw.Body.String() != baseline {
			t.Fatalf("serving snapshot disturbed by failed reload %d", i)
		}
		if s.Generation() != genBefore {
			t.Fatalf("generation moved on failed reload: %d", s.Generation())
		}
	}
	fault.Reset()

	if rw := postJSON(t, s.Handler(), "/reload", `{}`); rw.Code != http.StatusOK {
		t.Fatalf("clean reload failed: %d %s", rw.Code, rw.Body.String())
	}
	if s.Generation() != genBefore+1 {
		t.Fatalf("generation = %d, want %d", s.Generation(), genBefore+1)
	}
	if qw := postJSON(t, s.Handler(), "/query", query); qw.Code != http.StatusOK || qw.Body.String() != baseline {
		t.Fatal("post-reload query drifted")
	}
}

// TestChaosServerDelayMode exercises the delay mode on the handler site
// together with the request deadline: a slow dispatch path must not corrupt
// anything — the request still completes (the delay sits before evaluation,
// so the engine deadline is unaffected).
func TestChaosServerDelayMode(t *testing.T) {
	defer fault.Reset()
	s, _ := chaosServer(t)
	if err := fault.Arm("server/handler", fault.Plan{
		Mode: fault.ModeDelay, Delay: 20 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	w := getPath(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("delay did not apply")
	}
}

// writeGraphFile writes g as property-graph JSON to path and returns the
// bytes written.
func writeGraphFile(t *testing.T, path string, g *pg.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pg.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosLoadRetryRecoversFromInjectedFault: a JSON source whose first
// read fails loads on the retry, and each attempt reads a fresh stream. The
// backoff between the attempts replaces the file with another graph: a load
// that kept the first attempt's stream would serve the old one.
func TestChaosLoadRetryRecoversFromInjectedFault(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	path, next := filepath.Join(dir, "kg.json"), filepath.Join(dir, "next.json")
	writeGraphFile(t, path, fingraph.GenerateTopology(fingraph.DefaultConfig(10, 3)).Shareholding())
	want := writeGraphFile(t, next, fingraph.GenerateTopology(fingraph.DefaultConfig(12, 4)).Shareholding())

	if err := fault.Arm("pg/read-json", fault.Plan{Mode: fault.ModeError, After: 1, Times: 1}); err != nil {
		t.Fatal(err)
	}
	retries := 0
	s, err := New(Config{Source: path, Retry: fault.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {
		retries++
		if err := os.Rename(next, path); err != nil {
			t.Error(err)
		}
	}}})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if retries != 1 {
		t.Fatalf("%d retries, want 1", retries)
	}
	// The recovered read is bit-identical to a no-fault read of the file the
	// retry opened.
	var got bytes.Buffer
	if err := pg.WriteJSON(&got, s.current().view); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("the retried load serves another graph than a no-fault read of the file")
	}
}

// TestChaosLoadRetryExhaustsOnPersistentFault: a read that fails on every
// attempt fails the load with the injected error once the policy's attempts
// are spent.
func TestChaosLoadRetryExhaustsOnPersistentFault(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "kg.json")
	writeGraphFile(t, path, pg.New())
	if err := fault.Arm("pg/read-json", fault.Plan{Mode: fault.ModeError, Times: -1}); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Source: path, Retry: fault.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want ErrInjected after exhaustion, got %v", err)
	}
	if fault.Hits("pg/read-json") != 3 {
		t.Fatalf("site hit %d times, want 3", fault.Hits("pg/read-json"))
	}
}
