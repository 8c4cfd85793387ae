package repro_test

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
	"testing"
	"time"

	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/server"
	"repro/internal/snapfile"
	"repro/internal/supermodel"
)

// TestServePipeline is the top-level serving pipeline: the Figure 4 design
// drives validation while the generated Company KG instance is served over
// a real listener — generate → load → freeze → query → validate → reload →
// query, the deployment loop of DESIGN.md §11. It complements
// TestFullLifecycle: same methodology, consumed through the HTTP surface
// instead of the library one.
func TestServePipeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "companykg.json")
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(30, 5))
	g := topo.CompanyKG()
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

	srv, err := server.New(server.Config{
		Source:    path,
		Schema:    supermodel.CompanyKG(),
		CacheSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("serve returned %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()

	post := func(p, body string) (int, []byte) {
		resp, err := http.Post(base+p, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// The generated instance conforms to the design it was generated from —
	// the schema round trip of the methodology, checked over the network.
	code, vbody := post("/validate", `{}`)
	if code != http.StatusOK {
		t.Fatalf("validate %d: %s", code, vbody)
	}
	var v struct {
		Conforms bool `json:"conforms"`
		Count    int  `json:"count"`
	}
	if err := json.Unmarshal(vbody, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Conforms || v.Count != 0 {
		t.Fatalf("generated Company KG instance should conform: %s", vbody)
	}

	// A Figure 4 navigational query: who holds shares of which business.
	q := fmt.Sprintf(`{"query":%q}`, `(h: Person) [: HOLDS] (sh: Share; percentage: s) [: BELONGS_TO] (b: Business), s > 0.5`)
	code, q1 := post("/query", q)
	if code != http.StatusOK {
		t.Fatalf("query %d: %s", code, q1)
	}
	var qr struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(q1, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Total == 0 {
		t.Fatal("expected majority holdings in the generated instance")
	}

	// Reload and re-query: the swap is invisible in the bytes.
	if code, rbody := post("/reload", `{}`); code != http.StatusOK {
		t.Fatalf("reload %d: %s", code, rbody)
	}
	if gen := srv.Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	code, q2 := post("/query", q)
	if code != http.StatusOK {
		t.Fatalf("query after reload %d: %s", code, q2)
	}
	if !bytes.Equal(q1, q2) {
		t.Error("query response changed across snapshot swap of identical data")
	}
}

// TestServePipelineSnapshot is the persistence leg of the serving pipeline
// (DESIGN.md §12): generate → encode a binary snapshot (the kggen -snap /
// kgsnap path) → cold-start a server from the file (kgserve -in) →
// byte-compare /query against a server that parsed the JSON, then swap the
// JSON server onto the snapshot via /reload and compare again. The replica
// started from the mmap file must be indistinguishable on the wire, down
// to the bytes, with its provenance visible in /stats.
func TestServePipelineSnapshot(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "companykg.json")
	snapPath := filepath.Join(dir, "companykg.snap")
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(30, 5))
	g := topo.CompanyKG()
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info := snapfile.BuildInfo{
		Tool:   "kggen",
		Source: "fingraph/kg",
		Params: map[string]string{"companies": "30", "seed": "5"},
	}
	if _, err := snapfile.WriteFile(snapPath, g.Freeze(), info); err != nil {
		t.Fatal(err)
	}

	// Two replicas over real listeners: one parsed the JSON, one
	// cold-started from the snapshot file.
	start := func(source string) (*server.Server, string, func()) {
		srv, err := server.New(server.Config{Source: source, CacheSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		stop := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-done; err != http.ErrServerClosed {
				t.Errorf("serve returned %v", err)
			}
		}
		return srv, "http://" + ln.Addr().String(), stop
	}
	jsonSrv, jsonBase, stopJSON := start(jsonPath)
	defer stopJSON()
	_, snapBase, stopSnap := start(snapPath)
	defer stopSnap()

	post := func(base, p, body string) (int, []byte) {
		resp, err := http.Post(base+p, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	q := fmt.Sprintf(`{"query":%q}`, `(h: Person) [: HOLDS] (sh: Share; percentage: s) [: BELONGS_TO] (b: Business), s > 0.5`)
	code, fromJSON := post(jsonBase, "/query", q)
	if code != http.StatusOK {
		t.Fatalf("query (json replica) %d: %s", code, fromJSON)
	}
	code, fromSnap := post(snapBase, "/query", q)
	if code != http.StatusOK {
		t.Fatalf("query (snapshot replica) %d: %s", code, fromSnap)
	}
	if !bytes.Equal(fromJSON, fromSnap) {
		t.Fatal("snapshot-replica query bytes diverge from the JSON replica")
	}

	// The snapshot replica exposes its provenance.
	resp, err := http.Get(snapBase + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Build *snapfile.BuildInfo `json:"build"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Build == nil || st.Build.Tool != "kggen" || st.Build.Params["companies"] != "30" {
		t.Fatalf("snapshot replica /stats lacks provenance: %s", stats)
	}

	// The JSON replica hot-swaps onto the snapshot file: one generation
	// forward, query bytes unchanged.
	if code, rbody := post(jsonBase, "/reload", fmt.Sprintf(`{"path":%q}`, snapPath)); code != http.StatusOK {
		t.Fatalf("reload onto snapshot %d: %s", code, rbody)
	}
	if gen := jsonSrv.Generation(); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	code, afterSwap := post(jsonBase, "/query", q)
	if code != http.StatusOK {
		t.Fatalf("query after snapshot reload %d: %s", code, afterSwap)
	}
	if !bytes.Equal(fromJSON, afterSwap) {
		t.Fatal("query bytes changed across JSON→snapshot swap of identical data")
	}
}
