package server

// Serving-layer coverage for binary snapshot files (internal/snapfile):
// cold-starting from a snapshot must be observationally identical to
// parsing the JSON it was built from, /reload must accept snapshot paths
// (sniffed by magic, no flag), corruption and injected faults must leave
// the serving generation untouched, and /stats must surface the snapshot's
// provenance header.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/testutil"
)

const snapTestQuery = `{"query":"(x: Business; fiscalCode: c) [: OWNS] (y: Business)"}`

// snapFixture writes the same graph as kg.json and kg.snap and returns the
// two paths.
func snapFixture(t *testing.T) (jsonPath, snapPath string) {
	t.Helper()
	dir := t.TempDir()
	jsonPath = filepath.Join(dir, "kg.json")
	snapPath = filepath.Join(dir, "kg.snap")
	g := fingraph.GenerateTopology(fingraph.DefaultConfig(10, 3)).Shareholding()
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info := snapfile.BuildInfo{Tool: "server-test", Source: "fingraph", SourceHash: "f00f", Params: map[string]string{"companies": "10"}}
	if _, err := snapfile.WriteFile(snapPath, g.Freeze(), info); err != nil {
		t.Fatal(err)
	}
	return jsonPath, snapPath
}

// TestServeFromSnapshotFile: a server cold-started from the binary
// snapshot answers queries byte-identically to one that parsed the JSON,
// and its /stats carries the provenance header.
func TestServeFromSnapshotFile(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	jsonPath, snapPath := snapFixture(t)

	jsonSrv, err := New(Config{Source: jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	snapSrv, err := New(Config{Source: snapPath})
	if err != nil {
		t.Fatal(err)
	}
	if snapSrv.Generation() != 1 {
		t.Fatalf("generation %d, want 1", snapSrv.Generation())
	}

	jw := postJSON(t, jsonSrv.Handler(), "/query", snapTestQuery)
	sw := postJSON(t, snapSrv.Handler(), "/query", snapTestQuery)
	if jw.Code != http.StatusOK || sw.Code != http.StatusOK {
		t.Fatalf("query status %d / %d", jw.Code, sw.Code)
	}
	if jw.Body.String() != sw.Body.String() {
		t.Fatal("snapshot-served query differs from JSON-served query")
	}

	stw := getPath(t, snapSrv.Handler(), "/stats")
	if stw.Code != http.StatusOK {
		t.Fatalf("stats status %d", stw.Code)
	}
	var stats struct {
		Build *snapfile.BuildInfo `json:"build"`
		Nodes int                 `json:"nodes"`
	}
	if err := json.Unmarshal(stw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Build == nil || stats.Build.Tool != "server-test" || stats.Build.Params["companies"] != "10" {
		t.Fatalf("stats build info missing or wrong: %+v", stats.Build)
	}
}

// TestReloadIntoSnapshotFile: /reload with a .snap path swaps generations
// exactly as a JSON reload does — same data, one generation forward,
// byte-identical query results, provenance visible afterwards.
func TestReloadIntoSnapshotFile(t *testing.T) {
	jsonPath, snapPath := snapFixture(t)
	s, err := New(Config{Source: jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s.Handler(), "/query", snapTestQuery)
	if w.Code != http.StatusOK {
		t.Fatalf("baseline query: %d", w.Code)
	}
	baseline := w.Body.String()

	rw := postJSON(t, s.Handler(), "/reload", `{"path":"`+snapPath+`"}`)
	if rw.Code != http.StatusOK {
		t.Fatalf("reload into snapshot: %d %s", rw.Code, rw.Body.String())
	}
	if s.Generation() != 2 {
		t.Fatalf("generation %d, want 2", s.Generation())
	}
	if qw := postJSON(t, s.Handler(), "/query", snapTestQuery); qw.Body.String() != baseline {
		t.Fatal("query drifted across JSON→snapshot reload of identical data")
	}
	var stats struct {
		Build *snapfile.BuildInfo `json:"build"`
	}
	stw := getPath(t, s.Handler(), "/stats")
	if err := json.Unmarshal(stw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Build == nil || stats.Build.Tool != "server-test" {
		t.Fatalf("post-reload stats lack provenance: %+v", stats.Build)
	}
}

// TestReloadCorruptSnapshotKeepsServing: a corrupt snapshot file — flipped
// payload byte, truncation, zeroed checksum — fails /reload with a typed
// error while the old generation keeps serving bit-identically.
func TestReloadCorruptSnapshotKeepsServing(t *testing.T) {
	_, snapPath := snapFixture(t)
	s, err := New(Config{Source: snapPath})
	if err != nil {
		t.Fatal(err)
	}
	baseline := postJSON(t, s.Handler(), "/query", snapTestQuery).Body.String()
	genBefore := s.Generation()

	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	corrupt := func(name string, mutate func([]byte) []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	paths := []string{
		corrupt("flipped.snap", func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }),
		corrupt("truncated.snap", func(b []byte) []byte { return b[:len(b)*2/3] }),
		corrupt("nocrc.snap", func(b []byte) []byte { b[60] ^= 0xFF; return b }),
	}
	for _, p := range paths {
		rw := postJSON(t, s.Handler(), "/reload", `{"path":"`+p+`"}`)
		if rw.Code != http.StatusInternalServerError {
			t.Fatalf("%s: reload status %d, want 500", p, rw.Code)
		}
		var typed struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &typed); err != nil || typed.Error.Code == "" {
			t.Fatalf("%s: reload error is not typed JSON: %s", p, rw.Body.String())
		}
		if s.Generation() != genBefore {
			t.Fatalf("%s: generation moved on failed reload", p)
		}
		if qw := postJSON(t, s.Handler(), "/query", snapTestQuery); qw.Body.String() != baseline {
			t.Fatalf("%s: serving snapshot disturbed by failed reload", p)
		}
	}
}

// TestSnapshotMmapFaultStillServes: an injected fault at snapfile/mmap
// must not fail a snapshot load anywhere in the serving stack — the
// copying loader takes over transparently, for both cold start and reload.
func TestSnapshotMmapFaultStillServes(t *testing.T) {
	defer fault.Reset()
	_, snapPath := snapFixture(t)
	if err := fault.Arm("snapfile/mmap", fault.Plan{Mode: fault.ModeError, Times: -1}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Source: snapPath})
	if err != nil {
		t.Fatalf("cold start must survive mmap faults: %v", err)
	}
	baseline := postJSON(t, s.Handler(), "/query", snapTestQuery).Body.String()
	if rw := postJSON(t, s.Handler(), "/reload", `{}`); rw.Code != http.StatusOK {
		t.Fatalf("reload must survive mmap faults: %d", rw.Code)
	}
	if fault.Fired("snapfile/mmap") == 0 {
		t.Fatal("mmap site never fired")
	}
	if qw := postJSON(t, s.Handler(), "/query", snapTestQuery); qw.Body.String() != baseline {
		t.Fatal("fallback loader served different data")
	}
}

// TestSnapshotColdStartMatchesFreeze is the deep equivalence check behind
// the serving tests: the snapshot file reconstructs the exact frozen view
// the JSON path builds.
func TestSnapshotColdStartMatchesFreeze(t *testing.T) {
	jsonPath, snapPath := snapFixture(t)
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pg.ReadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapfile.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	want, got := g.Freeze(), snap.Frozen
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", want.NumNodes(), want.NumEdges(), got.NumNodes(), got.NumEdges())
	}
	wj, gj := jsonOf(t, want), jsonOf(t, got)
	if wj != gj {
		t.Fatal("snapshot view diverges from frozen view")
	}
}

func jsonOf(t *testing.T, f *pg.Frozen) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pg.WriteJSON(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
