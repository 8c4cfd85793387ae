package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/pg"
	"repro/internal/supermodel"
)

// TestServingNeverBuildsFacade walks a server through everything it does
// with a graph — start, every kind of query, explain, statistics, mutation
// batches on both the incremental and the re-extracting path, compaction,
// reload, shutdown and a restart that replays the log — from a JSON and a
// snapshot-file source, with and without a WAL, and after each step requires
// the serving generation's frozen graph (and the overlay's base) to still
// hold columns only. /validate walks Nodes() and is the one request that
// materializes the pointer facade.
func TestServingNeverBuildsFacade(t *testing.T) {
	jsonPath, snapPath := snapFixture(t)
	validated := map[bool]string{} // WAL on/off -> /validate body
	for _, src := range []string{jsonPath, snapPath} {
		for _, withWAL := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wal=%v", filepath.Ext(src), withWAL), func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{Source: src, CacheSize: 8, CompactDir: dir, Schema: supermodel.CompanyKG()}
				if withWAL {
					cfg.WALDir = filepath.Join(dir, "wal")
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				unbuilt := func(step string, retired ...*pg.Frozen) {
					t.Helper()
					sn := s.current()
					if sn.frozen.FacadeBuilt() {
						t.Fatalf("after %s: the serving generation's frozen graph has built its facade", step)
					}
					if sn.ov != nil && sn.ov.Base().FacadeBuilt() {
						t.Fatalf("after %s: the overlay's base has built its facade", step)
					}
					for _, f := range retired {
						if f.FacadeBuilt() {
							t.Fatalf("after %s: the retiring generation's frozen graph has built its facade", step)
						}
					}
				}
				ok := func(step string, code int, body string) {
					t.Helper()
					if code != http.StatusOK {
						t.Fatalf("%s: status %d: %s", step, code, body)
					}
					unbuilt(step)
				}
				post := func(path, body string) {
					t.Helper()
					w := postJSON(t, s.Handler(), path, body)
					ok(path+" "+body, w.Code, w.Body.String())
				}
				reads := func() {
					t.Helper()
					post("/query", `{"query":"(x: Business; fiscalCode: c) [: OWNS] (y: Business)"}`)
					post("/query", `{"query":"(x: Business) ([: OWNS])+ (y: Business)"}`)
					post("/query", `{"query":"(x: Entity; fiscalCode: c)"}`)
					delta := countersSince()
					post("/query", `{"query":"(x: Business; nope: v) [: OWNS] (y: Business)"}`)
					if d := delta().QueryReextracts; d != 1 {
						t.Fatalf("absent-property query re-extracted %d times, want 1", d)
					}
					post("/explain", `{"query":"(x: Business; fiscalCode: c) [: OWNS] (y: Business)","run":true}`)
					w := getPath(t, s.Handler(), "/stats")
					ok("/stats", w.Code, w.Body.String())
				}
				unbuilt("New")
				reads()

				// A base node with its incident edges, and a base edge, to remove.
				var node, edge pg.OID
				s.current().view.ScanEdges(func(e *pg.EdgeRow) bool {
					if edge == 0 {
						edge = e.ID
						return true
					}
					node = e.To
					return false
				})
				// Every op kind, inside the catalog: the incremental path.
				post("/mutate", fmt.Sprintf(`{"ops":[
					{"op":"add_node","name":"n","labels":["Business","Entity"],"props":{"fiscalCode":{"kind":"string","str":"new"}}},
					{"op":"add_edge","from":{"name":"n"},"to":{"id":1},"label":"OWNS","props":{"percentage":{"kind":"float","float":0.3}}},
					{"op":"set_node_prop","node":{"id":1},"key":"fiscalCode","value":{"kind":"string","str":"changed"}},
					{"op":"del_node_prop","node":{"id":2},"key":"fiscalCode"},
					{"op":"add_label","node":{"id":2},"label":"Business"},
					{"op":"remove_edge","edge":%d},
					{"op":"remove_node","node":{"id":%d}}
				]}`, edge, node))
				reads()
				// A new label grows the catalog: the substrate is rebuilt from
				// the overlay.
				delta := countersSince()
				post("/mutate", `{"ops":[{"op":"add_node","labels":["Fund"],"props":{"aum":{"kind":"int","int":7}}}]}`)
				if d := delta().MutateFallbacks; d != 1 {
					t.Fatalf("catalog-growing batch took the fallback %d times, want 1", d)
				}
				reads()

				retiring := s.current().frozen
				post("/compact", ``)
				unbuilt("/compact", retiring)
				reads()
				post("/reload", `{}`)
				reads()

				// Restart: with a log, the batch after the reload's checkpoint
				// is replayed over the base.
				post("/mutate", walBatch("late"))
				shutdownServer(t, s)
				unbuilt("Shutdown")
				if s, err = New(cfg); err != nil {
					t.Fatal(err)
				}
				defer shutdownServer(t, s)
				unbuilt("restart")
				reads()

				w := postJSON(t, s.Handler(), "/validate", `{}`)
				if w.Code != http.StatusOK {
					t.Fatalf("/validate: status %d: %s", w.Code, w.Body.String())
				}
				if !s.current().frozen.FacadeBuilt() {
					t.Fatal("/validate walks Nodes(): it is expected to build the facade")
				}
				if prev, seen := validated[withWAL]; seen && prev != w.Body.String() {
					t.Fatalf("/validate differs between the JSON and the snapshot source:\n%s\n%s", prev, w.Body.String())
				}
				validated[withWAL] = w.Body.String()
			})
		}
	}
}
