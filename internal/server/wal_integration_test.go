package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/testutil"
	"repro/internal/vadalog"
	"repro/internal/wal"
)

// Durability integration tests: a server with Config.WALDir must recover,
// after an abrupt stop, a state bit-identical (through the snapfile encoder)
// to the one a crash-free server reaches with the same batches — and replay
// only the batches the last checkpoint has not already folded away.

// walBatch is a small always-valid /mutate body: one new Business node (the
// tag keeps fiscal codes unique across batches) plus an edge to base node 1.
func walBatch(tag string) string {
	return fmt.Sprintf(`{"ops":[
		{"op":"add_node","name":"w","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"w%s"}}},
		{"op":"add_edge","from":{"name":"w"},"to":{"id":1},"label":"OWNS","props":{"percentage":{"kind":"float","float":0.2}}}
	]}`, tag)
}

func mustMutate(t *testing.T, s *Server, body string) MutateInfo {
	t.Helper()
	w := postJSON(t, s.Handler(), "/mutate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", w.Code, w.Body.String())
	}
	var info MutateInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// encodeView folds the server's current serving view through the snapfile
// encoder with a zero BuildInfo — Encode is a pure function of the graph, so
// equal bytes mean bit-identical recovered state.
func encodeView(t *testing.T, s *Server) []byte {
	t.Helper()
	sn := s.current()
	frozen := sn.frozen
	if sn.ov != nil {
		var err error
		if frozen, err = sn.ov.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := snapfile.Encode(frozen, snapfile.BuildInfo{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// walSourceConfig writes mutateBase as a JSON source file and returns the
// configuration of a server that loads it and logs beside it — the shape a
// reload needs, since a reload re-reads Config.Source.
func walSourceConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "kg.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, mutateBase(t)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return Config{Source: path, WALDir: filepath.Join(dir, "wal")}
}

// TestWALMutateDurableRestart is the basic durability round trip: batches
// acknowledged by one server instance are all present after a restart over
// the same log, with sequence numbers surfaced to the client and never
// regressing across the restart.
func TestWALMutateDurableRestart(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	walDir := filepath.Join(t.TempDir(), "wal")

	s, err := NewFromGraph(Config{WALDir: walDir}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		info := mustMutate(t, s, walBatch(fmt.Sprint(i)))
		if info.Seq != uint64(i+1) {
			t.Fatalf("batch %d acknowledged with seq %d, want %d", i, info.Seq, i+1)
		}
	}
	want := encodeView(t, s)
	genWAL := s.WALStats().Generation
	shutdownServer(t, s)

	// The restart: same base graph, same log directory. Recovery is
	// synchronous inside NewFromGraph, so the returned server already
	// serves the replayed state.
	s2, err := NewFromGraph(Config{WALDir: walDir}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	if got := encodeView(t, s2); !bytes.Equal(got, want) {
		t.Fatal("recovered state is not bit-identical to the pre-restart view")
	}
	if _, n := queryRows(t, s2, `(x: Business; fiscalCode: c)`); n != 5 {
		t.Fatalf("recovered rows = %d, want 5", n)
	}
	st := s2.WALStats()
	if st.NextSeq != 4 {
		t.Fatalf("recovered NextSeq = %d, want 4", st.NextSeq)
	}
	if st.Generation < genWAL {
		t.Fatalf("wal generation regressed across restart: %d -> %d", genWAL, st.Generation)
	}
	// The next acknowledged batch continues the sequence — no reuse, no gap.
	if info := mustMutate(t, s2, walBatch("post")); info.Seq != 4 {
		t.Fatalf("post-recovery seq = %d, want 4", info.Seq)
	}
}

// TestWALRecoveryAfterCompaction pins the truncation contract: once /compact
// persists a frozen snapshot and checkpoints the log, a restart loads that
// snapshot as the base and replays only the batches after it.
func TestWALRecoveryAfterCompaction(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	dir := t.TempDir()
	cfg := Config{WALDir: filepath.Join(dir, "wal"), CompactDir: filepath.Join(dir, "snaps")}
	if err := os.MkdirAll(cfg.CompactDir, 0o755); err != nil {
		t.Fatal(err)
	}

	s, err := NewFromGraph(cfg, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustMutate(t, s, walBatch(fmt.Sprint(i)))
	}
	delta := countersSince()
	if w := postJSON(t, s.Handler(), "/compact", ""); w.Code != http.StatusOK {
		t.Fatalf("compact: %d %s", w.Code, w.Body.String())
	}
	if d := delta().WALCheckpoints; d != 1 {
		t.Fatalf("compact stamped %d checkpoints, want 1", d)
	}
	mustMutate(t, s, walBatch("3"))
	mustMutate(t, s, walBatch("4"))
	want := encodeView(t, s)
	wantExplain := explainBody(t, s, walExplainQuery)
	shutdownServer(t, s)

	// Only the two post-checkpoint batches replay; the first three live in
	// the compacted snapshot the checkpoint points at.
	delta = countersSince()
	s2, err := NewFromGraph(cfg, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	if d := delta().WALReplayed; d != 2 {
		t.Fatalf("replayed %d batches after compaction, want 2", d)
	}
	if got := encodeView(t, s2); !bytes.Equal(got, want) {
		t.Fatal("post-compaction recovery is not bit-identical to the pre-restart view")
	}
	if st := s2.WALStats(); st.NextSeq != 6 {
		t.Fatalf("recovered NextSeq = %d, want 6", st.NextSeq)
	}
	// Recovery costs plans from the checkpointed base's statistics, as the
	// live server did after /compact: statistics over the replayed overlay
	// would count the two later batches' Business node and OWNS edge.
	if got := explainBody(t, s2, walExplainQuery); got != wantExplain {
		t.Fatalf("recovered /explain differs from the live server's\n got %s\nwant %s", got, wantExplain)
	}
}

const walExplainQuery = `(x: Business; fiscalCode: c) [: OWNS] (y: Business; fiscalCode: d)`

// explainBody returns the server's /explain body for a pattern it plans,
// byte for byte but for the generation, which recovery does not carry over.
func explainBody(t *testing.T, s *Server, q string) string {
	t.Helper()
	w := postJSON(t, s.Handler(), "/explain", fmt.Sprintf(`{"query":%q}`, q))
	if w.Code != http.StatusOK {
		t.Fatalf("explain %q: %d %s", q, w.Code, w.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || !resp.Planned {
		t.Fatalf("explain %q is not planned (%v): %s", q, err, w.Body.String())
	}
	gen := fmt.Sprintf(`"generation": %d,`, resp.Generation)
	if !strings.Contains(w.Body.String(), gen) {
		t.Fatalf("explain body does not carry %s: %s", gen, w.Body.String())
	}
	return strings.Replace(w.Body.String(), gen, "", 1)
}

// TestWALReloadCheckpoints pins the reload ordering invariant: a reload
// checkpoints the log *before* swapping, so logged pre-reload batches are
// abandoned with the old state and a restart replays nothing over the new
// source.
func TestWALReloadCheckpoints(t *testing.T) {
	cfg := walSourceConfig(t)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, s, walBatch("a"))
	mustMutate(t, s, walBatch("b"))
	delta := countersSince()
	if w := postJSON(t, s.Handler(), "/reload", `{}`); w.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", w.Code, w.Body.String())
	}
	if d := delta().WALCheckpoints; d != 1 {
		t.Fatalf("reload stamped %d checkpoints, want 1", d)
	}
	shutdownServer(t, s)

	delta = countersSince()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	if d := delta().WALReplayed; d != 0 {
		t.Fatalf("replayed %d abandoned pre-reload batches, want 0", d)
	}
	if _, n := queryRows(t, s2, `(x: Business; fiscalCode: c)`); n != 2 {
		t.Fatalf("post-reload recovery rows = %d, want 2 (the fresh source)", n)
	}
	// Sequence numbers survive the checkpoint: the next batch extends the
	// old numbering rather than restarting it.
	if info := mustMutate(t, s2, walBatch("c")); info.Seq != 3 {
		t.Fatalf("post-reload seq = %d, want 3", info.Seq)
	}
}

// TestWALRecoveringGate pins the readiness surface: while recovery is in
// flight every endpoint — /healthz included — answers the typed 503, and the
// direct write APIs refuse.
func TestWALRecoveringGate(t *testing.T) {
	s, err := NewFromGraph(Config{WALDir: filepath.Join(t.TempDir(), "wal")}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)

	s.recovering.Store(true)
	for _, ep := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/stats", ""},
		{http.MethodPost, "/query", `{"query":"(x: Business)"}`},
		{http.MethodPost, "/mutate", walBatch("x")},
		{http.MethodPost, "/compact", ""},
		{http.MethodPost, "/reload", `{}`},
	} {
		var w interface {
			Result() *http.Response
		}
		if ep.method == http.MethodGet {
			w = getPath(t, s.Handler(), ep.path)
		} else {
			w = postJSON(t, s.Handler(), ep.path, ep.body)
		}
		resp := w.Result()
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while recovering: status %d, want 503", ep.path, resp.StatusCode)
		}
	}
	hw := getPath(t, s.Handler(), "/healthz")
	if got := errCode(t, hw); got != "recovering" {
		t.Fatalf("error code %q, want %q", got, "recovering")
	}
	if _, err := s.Mutate(nil); err == nil {
		t.Fatal("direct Mutate accepted during recovery")
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("direct Compact accepted during recovery")
	}
	if _, err := s.Reload(""); err == nil {
		t.Fatal("direct Reload accepted during recovery")
	}
	s.recovering.Store(false)
	if hw := getPath(t, s.Handler(), "/healthz"); hw.Code != http.StatusOK {
		t.Fatalf("healthz after recovery: %d", hw.Code)
	}
}

// TestWALAsyncRecoveryBecomesReady drives the WALAsyncRecovery path end to
// end: the constructor returns immediately, and the server turns ready with
// the replayed state once the background replay lands.
func TestWALAsyncRecoveryBecomesReady(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	walDir := filepath.Join(t.TempDir(), "wal")

	s, err := NewFromGraph(Config{WALDir: walDir}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, s, walBatch("a"))
	mustMutate(t, s, walBatch("b"))
	shutdownServer(t, s)

	s2, err := NewFromGraph(Config{WALDir: walDir, WALAsyncRecovery: true}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		hw := getPath(t, s2.Handler(), "/healthz")
		if hw.Code == http.StatusOK {
			break
		}
		if hw.Code != http.StatusServiceUnavailable {
			t.Fatalf("healthz during async recovery: %d %s", hw.Code, hw.Body.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %s", hw.Body.String())
		}
		time.Sleep(time.Millisecond)
	}
	if _, n := queryRows(t, s2, `(x: Business; fiscalCode: c)`); n != 4 {
		t.Fatalf("recovered rows = %d, want 4", n)
	}
}

// TestWALAsyncRecoveryFailureStaysUnready: a log whose payloads cannot
// replay (valid records, garbage inside) must leave the async server
// permanently answering 503 — never serving a state that is missing
// acknowledged writes — while the synchronous constructor fails outright.
func TestWALAsyncRecoveryFailureStaysUnready(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	walDir := filepath.Join(t.TempDir(), "wal")
	l, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("not a batch")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := NewFromGraph(Config{WALDir: walDir}, mutateBase(t)); err == nil {
		t.Fatal("synchronous recovery accepted an unreplayable log")
	}

	s, err := NewFromGraph(Config{WALDir: walDir, WALAsyncRecovery: true}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	s.recoverWG.Wait()
	hw := getPath(t, s.Handler(), "/healthz")
	if hw.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after failed recovery: %d", hw.Code)
	}
	if got := errCode(t, hw); got != "recovering" {
		t.Fatalf("error code %q, want %q", got, "recovering")
	}
	var typed struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(hw.Body.Bytes(), &typed); err != nil {
		t.Fatal(err)
	}
	if want := "recovery failed"; !bytes.Contains([]byte(typed.Error.Message), []byte(want)) {
		t.Fatalf("503 message %q does not explain the failure", typed.Error.Message)
	}
}

// TestWALStatsSection: with a WAL the /stats document carries a live "wal"
// object (depth, fsync latency); TestStatsResponseLattice covers its absence
// without one.
func TestWALStatsSection(t *testing.T) {
	s, err := NewFromGraph(Config{WALDir: filepath.Join(t.TempDir(), "wal")}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	mustMutate(t, s, walBatch("a"))

	w := getPath(t, s.Handler(), "/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body.String())
	}
	var doc struct {
		WAL *wal.Stats `json:"wal"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.WAL == nil {
		t.Fatal("stats document has no wal section")
	}
	if doc.WAL.Appended != 1 || doc.WAL.NextSeq != 2 {
		t.Fatalf("wal stats %+v, want appended 1 / nextSeq 2", doc.WAL)
	}
	if doc.WAL.Syncs == 0 || doc.WAL.LastSyncNanos <= 0 {
		t.Fatalf("wal stats carry no fsync latency: %+v", doc.WAL)
	}
}

// TestChaosWALSweep extends the chaos harness to the four durability fault
// sites. Per injection the write-path atomicity invariant holds: a failed
// append or fsync rejects the batch with a typed error, an unmoved
// generation, an unmoved WAL sequence and a bit-identical served view; a
// clean retry then succeeds.
func TestChaosWALSweep(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	defer fault.Reset()

	cases := []struct {
		site string
		mode fault.Mode
	}{
		{"wal/append", fault.ModeError},
		{"wal/append", fault.ModePanic},
		{"wal/fsync", fault.ModeError},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.site, tc.mode), func(t *testing.T) {
			fault.Reset()
			s, err := NewFromGraph(Config{WALDir: filepath.Join(t.TempDir(), "wal")}, mutateBase(t))
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownServer(t, s)
			mustMutate(t, s, walBatch("seed"))
			baseline := encodeView(t, s)
			genBefore := s.Generation()
			seqBefore := s.WALStats().NextSeq

			if err := fault.Arm(tc.site, fault.Plan{Mode: tc.mode}); err != nil {
				t.Fatal(err)
			}
			w := postJSON(t, s.Handler(), "/mutate", walBatch("hurt"))
			if fault.Fired(tc.site) == 0 {
				t.Fatalf("site %s never fired", tc.site)
			}
			if w.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
			}
			wantCode := "injected"
			if tc.mode == fault.ModePanic {
				wantCode = "panic"
			}
			if got := errCode(t, w); got != wantCode {
				t.Errorf("code %q, want %q", got, wantCode)
			}
			fault.Reset()

			// Rejected and logged are mutually exclusive: the sequence did
			// not advance, the generation did not move, the view is
			// bit-identical.
			if st := s.WALStats(); st.NextSeq != seqBefore {
				t.Fatalf("rejected batch advanced NextSeq: %d -> %d", seqBefore, st.NextSeq)
			}
			if s.Generation() != genBefore {
				t.Fatalf("generation moved under fault: %d -> %d", genBefore, s.Generation())
			}
			if got := encodeView(t, s); !bytes.Equal(got, baseline) {
				t.Fatal("served view disturbed by injected WAL fault")
			}

			// A clean retry succeeds and takes the very next sequence number.
			info := mustMutate(t, s, walBatch("retry"))
			if info.Seq != seqBefore {
				t.Fatalf("retry seq = %d, want %d", info.Seq, seqBefore)
			}
		})
	}
}

// TestWALRejectedBatchLeavesServedFacts: Server.Mutate folds a batch into
// the facts before it logs it, so a batch whose WAL append fails has already
// spliced a fact generation from the served one — a sibling of the next
// accepted batch's, both sharing the served generation's list rows. After a
// rejected batch and an accepted one, the served facts must be, position for
// position, a full re-extraction of the served view, and a restart from the
// same WAL must answer every query as the live server did.
func TestWALRejectedBatchLeavesServedFacts(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	defer fault.Reset()
	walDir := filepath.Join(t.TempDir(), "wal")
	s, err := NewFromGraph(Config{WALDir: walDir}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustMutate(t, s, walBatch(fmt.Sprint(i)))
	}
	if err := fault.Arm("wal/append", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s.Handler(), "/mutate", walBatch("rejected"))
	fault.Reset()
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
	}
	mustMutate(t, s, walBatch("accepted"))

	sn := s.current()
	full, err := metalog.ExtractFacts(sn.view, sn.cat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := factsInOrder(sn.db), factsInOrder(full); got != want {
		t.Fatalf("served facts:\n%s\nfull re-extraction:\n%s", got, want)
	}
	queries := []string{
		`(x: Business; fiscalCode: c)`,
		`(x: Business; fiscalCode: c) [: OWNS; percentage: p] (y: Business)`,
	}
	live := make([]string, len(queries))
	for i, q := range queries {
		live[i], _ = queryRows(t, s, q)
	}
	if _, n := queryRows(t, s, queries[0]); n != 6 {
		t.Fatalf("live server holds %d businesses, want 6", n)
	}
	shutdownServer(t, s)

	s2, err := NewFromGraph(Config{WALDir: walDir}, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	for i, q := range queries {
		if got, _ := queryRows(t, s2, q); got != live[i] {
			t.Errorf("%s after restart:\n%s\nlive:\n%s", q, got, live[i])
		}
	}
}

// factsInOrder renders every relation's facts at their positions.
func factsInOrder(db *vadalog.Database) string {
	var b strings.Builder
	for _, p := range db.Predicates() {
		for i, f := range db.Facts(p) {
			fmt.Fprintf(&b, "%s[%d]%v\n", p, i, f)
		}
	}
	return b.String()
}

// TestChaosWALTruncationFailureTolerated: a failed WAL truncation during
// /compact must not fail the compaction — serving continues on the new
// generation, and the untruncated log replays idempotently (the checkpoint
// skips the already-folded batches) after a restart.
func TestChaosWALTruncationFailureTolerated(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	defer fault.Reset()
	dir := t.TempDir()
	cfg := Config{WALDir: filepath.Join(dir, "wal"), CompactDir: filepath.Join(dir, "snaps")}
	if err := os.MkdirAll(cfg.CompactDir, 0o755); err != nil {
		t.Fatal(err)
	}

	s, err := NewFromGraph(cfg, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, s, walBatch("a"))
	mustMutate(t, s, walBatch("b"))

	delta := countersSince()
	if err := fault.Arm("wal/rotate", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s.Handler(), "/compact", "")
	fault.Reset()
	if w.Code != http.StatusOK {
		t.Fatalf("compact under truncation fault: %d %s", w.Code, w.Body.String())
	}
	// The CHECKPOINT rename was durable before the rotation failed, so the
	// checkpoint landed: counted as one, not as an error.
	if d := delta(); d.WALCheckpoints != 1 || d.WALCheckpointErrors != 0 {
		t.Fatalf("checkpoint whose rotation failed counted as %d landed, %d failed; want 1, 0",
			d.WALCheckpoints, d.WALCheckpointErrors)
	}
	// Serving continues: reads and writes keep landing on the compacted
	// generation.
	if _, n := queryRows(t, s, `(x: Business; fiscalCode: c)`); n != 4 {
		t.Fatalf("rows after tolerated failure = %d, want 4", n)
	}
	mustMutate(t, s, walBatch("c"))
	want := encodeView(t, s)
	shutdownServer(t, s)

	// The restart replays idempotently over whatever base the (possibly
	// half-finished) checkpoint left behind — the merged view is the same.
	s2, err := NewFromGraph(cfg, mutateBase(t))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	if got := encodeView(t, s2); !bytes.Equal(got, want) {
		t.Fatal("recovery after failed truncation is not bit-identical")
	}
	if info := mustMutate(t, s2, walBatch("d")); info.Seq != 4 {
		t.Fatalf("post-recovery seq = %d, want 4", info.Seq)
	}
}

// TestChaosReloadSurvivesRotateFault: a reload checkpoints the log against
// the reloaded source before it swaps. When that checkpoint's CHECKPOINT
// rename lands and only the rotation after it fails, the log's base already
// is the reload source — so the reload must go through. Read as "reload
// failed", the process keeps serving the old base plus its batches while a
// restart comes up on the new source without them: acknowledged writes gone.
// Whatever Reload answers, a restart on the same log directory must serve
// exactly what the first process last served.
func TestChaosReloadSurvivesRotateFault(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	defer fault.Reset()
	cfg := walSourceConfig(t)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, s, walBatch("a"))
	mustMutate(t, s, walBatch("b"))
	if err := fault.Arm("wal/rotate", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	_, reloadErr := s.Reload("")
	fault.Reset()
	// A write acknowledged after the reload rides the rotation the
	// checkpoint left pending.
	mustMutate(t, s, walBatch("c"))
	want := encodeView(t, s)
	_, rows := queryRows(t, s, `(x: Business; fiscalCode: c)`)
	shutdownServer(t, s)

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	if _, n := queryRows(t, s2, `(x: Business; fiscalCode: c)`); n != rows {
		t.Fatalf("restart serves %d businesses, the first process last served %d (Reload returned %v)", n, rows, reloadErr)
	}
	if got := encodeView(t, s2); !bytes.Equal(got, want) {
		t.Fatalf("restart is not bit-identical to what the first process last served (Reload returned %v)", reloadErr)
	}
	if reloadErr != nil || rows != 3 {
		t.Fatalf("Reload = %v serving %d businesses; want nil and 3 (the fresh source plus batch c)", reloadErr, rows)
	}
}

// TestChaosCompactNeverReusesSnapshotPath: the compacted snapshot is named
// from the log's checkpoint generation, which is persisted and only grows —
// not from the serving generation, which restarts at 1 in every process. A
// second process compacting into the directory of the first would otherwise
// write over the very file the checkpoint in force names as its base; when
// its own checkpoint then fails (tolerated), recovery replays the logged
// batch over a base that already holds it.
func TestChaosCompactNeverReusesSnapshotPath(t *testing.T) {
	leak := testutil.CheckGoroutineLeak(t)
	defer leak()
	defer fault.Reset()
	dir := t.TempDir()
	cfg := Config{WALDir: filepath.Join(dir, "wal"), WALSync: "interval:1h", CompactDir: filepath.Join(dir, "snaps")}
	if err := os.MkdirAll(cfg.CompactDir, 0o755); err != nil {
		t.Fatal(err)
	}
	start := func() *Server {
		t.Helper()
		s, err := NewFromGraph(cfg, mutateBase(t))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	compact := func(s *Server) string {
		t.Helper()
		w := postJSON(t, s.Handler(), "/compact", "")
		var info CompactInfo
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil || w.Code != http.StatusOK || !info.Compacted {
			t.Fatalf("compact: %d %s (%v)", w.Code, w.Body.String(), err)
		}
		return info.Path
	}

	s := start()
	mustMutate(t, s, walBatch("a"))
	first := compact(s)
	shutdownServer(t, s)

	s = start()
	mustMutate(t, s, walBatch("b"))
	delta := countersSince()
	// The batch is unsynced under the hour-long interval, so the checkpoint
	// has to fsync it first — and fails there, before anything is stamped.
	if err := fault.Arm("wal/fsync", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	second := compact(s)
	fault.Reset()
	if delta().WALCheckpointErrors != 1 {
		t.Fatal("the compaction's checkpoint did not fail")
	}
	if second == first {
		t.Fatalf("the second process compacted over %s, the checkpoint's base", first)
	}
	want := encodeView(t, s)
	shutdownServer(t, s)

	s = start()
	defer shutdownServer(t, s)
	if got := encodeView(t, s); !bytes.Equal(got, want) {
		_, n := queryRows(t, s, `(x: Business; fiscalCode: c)`)
		t.Fatalf("recovery over the first compaction's base is not bit-identical: %d Business rows, 4 served", n)
	}
}

// TestChaosWALReplayFault: an injected failure at the replay site surfaces
// as a typed constructor error — the server never starts over a log it
// could not read.
func TestChaosWALReplayFault(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm("wal/replay", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	_, err := NewFromGraph(Config{WALDir: filepath.Join(t.TempDir(), "wal")}, mutateBase(t))
	fault.Reset()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("constructor error = %v, want the injected fault", err)
	}
}
