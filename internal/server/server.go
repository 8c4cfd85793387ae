// Package server is the serving layer of the reproduction: an HTTP query
// service over frozen dictionary snapshots. It is the deployment shape the
// paper's Bank of Italy stack implies — analysts querying the company KG
// concurrently — mapped onto the repo's two-phase storage discipline:
//
//   - a dictionary is loaded and frozen once into an immutable pg.Frozen
//     snapshot (plus its MetaLog catalog and extracted fact database), and
//     every request reads that snapshot lock-free through one atomic
//     pointer;
//   - /reload builds the next snapshot entirely off-line — load, freeze,
//     extract — and then swaps the pointer. Old readers drain on the old
//     snapshot; the generation counter is monotonic, and a failed reload
//     (including injected faults and contained panics) leaves the serving
//     snapshot untouched;
//   - compute endpoints (/query, /stats, /validate) pass admission control
//     first: a bounded worker pool that sheds load with a typed 429 instead
//     of queueing, keeping tail latency bounded under overload;
//   - query results and compiled plans are cached in LRUs that belong to
//     the generation they were computed from, keyed by the pattern's token
//     stream — a swap invalidates by construction: the new generation
//     starts with none, and the old one's go with it;
//   - per-request context deadlines ride the PR 2 cancellation path into
//     the engine (vadalog.RunCtx), fault sites bracket the load, swap and
//     handler boundaries for chaos testing, and obs supplies the expvar
//     counter set and the per-endpoint latency aggregates published in it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/graphstats"
	"repro/internal/gsl"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/plan"
	"repro/internal/snapfile"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
	"repro/internal/wal"
)

// Fault-injection sites of the serving layer (see internal/fault): the
// dictionary load, the freeze-and-swap boundary of /reload, and the request
// dispatch path every endpoint crosses.
var (
	siteLoad    = fault.Site("server/load")
	siteSwap    = fault.Site("server/freeze-swap")
	siteHandler = fault.Site("server/handler")
)

const (
	defaultMaxBody = int64(1 << 20)
	defaultTimeout = 30 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Source is the dictionary file served — property-graph JSON or a binary
	// snapshot file, told apart by the file's magic; /reload with an empty
	// path re-reads it. Optional when the server is built with
	// NewFromGraph, in which case /reload requires an explicit path.
	Source string

	// Schema enables /validate and enriches /schema; nil disables both
	// behaviors (validate answers with a typed no_schema error). SSST
	// translates it into the PG model once per PG mapping of the repository
	// when the server is built; a schema it cannot translate fails New.
	Schema *supermodel.Schema

	// MaxInflight bounds the number of concurrently executing compute
	// requests (/query, /stats, /validate); excess requests are shed with a
	// typed 429. Defaults to 8.
	MaxInflight int
	// EngineWorkers is the vadalog.Options.Workers value for each admitted
	// query — per-query engine parallelism, multiplied by MaxInflight for
	// the process budget. Defaults to 1 (concurrency comes from requests).
	EngineWorkers int
	// MaxFacts is the per-query derivation valve (vadalog.Options.MaxFacts);
	// 0 means unlimited.
	MaxFacts int
	// Timeout is the per-request evaluation deadline, wired into the
	// engine's cancellation path. 0 selects the 30s default; negative
	// disables the deadline.
	Timeout time.Duration

	// CacheSize is the capacity, in entries, of each generation's
	// query-result LRU; 0 disables caching.
	CacheSize int
	// MaxBody caps request body bytes (defaults to 1 MiB).
	MaxBody int64

	// PlannerOff disables the cost-based query planner: /query evaluates
	// written-order programs, /explain answers with planner "off", and no
	// statistics catalog is computed at snapshot build.
	PlannerOff bool
	// PlanCacheSize is the capacity, in entries, of each generation's
	// compiled-plan LRU. 0 selects the 128 default; negative disables plan
	// caching (plans are still computed, per request).
	PlanCacheSize int

	// CompactEvery starts a background compactor that folds the live write
	// overlay into a fresh frozen generation at this interval; 0 disables
	// it (compaction stays available through POST /compact).
	CompactEvery time.Duration
	// CompactDir, when set, persists every compacted generation as a binary
	// snapshot file (snapfile format) in this directory.
	CompactDir string

	// WALDir, when set, makes the write path durable: every applied /mutate
	// batch is appended to a write-ahead log in this directory before it is
	// acknowledged, and startup replays the log over the base snapshot (see
	// wal.go). Empty disables the WAL — mutations live only in memory.
	WALDir string
	// WALSync selects the log's fsync policy: "always" (default; fsync
	// before every acknowledgment), "interval[:duration]" (background
	// fsyncs) or "off".
	WALSync string
	// WALAsyncRecovery makes New return before the WAL replay finishes; the
	// server answers every endpoint with a typed 503 "recovering" until the
	// replayed state is installed. Off, New blocks until recovery completes.
	WALAsyncRecovery bool

	// Retry is the load-retry policy applied to dictionary reads.
	Retry fault.RetryPolicy
	// OnFault is the engine failure policy for query evaluation.
	OnFault vadalog.FaultPolicy

	// Debug mounts /debug/vars (expvar: the counter sets and per-endpoint
	// latency) and /debug/pprof.
	Debug bool
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = 1
	}
	if c.Timeout == 0 {
		c.Timeout = defaultTimeout
	} else if c.Timeout < 0 {
		c.Timeout = 0
	}
	if c.MaxBody <= 0 {
		c.MaxBody = defaultMaxBody
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 128
	} else if c.PlanCacheSize < 0 {
		c.PlanCacheSize = 0
	}
	return c
}

// snapshot is one immutable serving generation: the frozen graph, its
// catalog, and the extracted fact database every query starts from. Stats
// are computed lazily, once per generation.
type snapshot struct {
	gen    uint64
	frozen *pg.Frozen
	// view is what every read endpoint consumes: the frozen base itself
	// when no writes are pending, or the live overlay layered over it once
	// POST /mutate has applied batches. Readers never observe a generation
	// gap — the pointer swap installs view, catalog and fact database as
	// one unit.
	view pg.View
	// ov is the mutable delta this generation serves through view; nil for
	// purely frozen generations. It is never mutated in place: Mutate
	// clones it, applies the batch to the clone, and swaps.
	ov  *overlay.Overlay
	cat *metalog.Catalog
	db  *vadalog.Database

	// pstats is the planner's statistics catalog, computed once per frozen
	// generation (nil with the planner off). Mutated generations carry the
	// base's stats forward unchanged — estimates drift with the overlay but
	// correctness never depends on them, and the next compaction or reload
	// recomputes from scratch.
	pstats *plan.Stats

	// file is the snapshot file this generation was opened from; nil for
	// JSON loads, in-memory graphs and compactions. It keeps an mmap-backed
	// snapshot alive for the generation's whole lifetime (the frozen view's
	// columns alias the mapping) — never closed on swap: old readers may
	// still drain, and the retired pages are reclaimable by the OS anyway —
	// and /stats surfaces its provenance header, so an operator can tell
	// which build a replica serves.
	file *snapfile.Snapshot

	statsOnce sync.Once
	stats     graphstats.Stats

	// results and plans cache what requests computed from this generation —
	// response bodies and compiled queries (plan.go). A request reads and
	// fills the caches of the generation it evaluates against, so an entry
	// can only ever answer for the data it was computed from, and a retired
	// generation takes its entries along.
	results lru[resultKey, []byte]
	plans   lru[string, *metalog.Prepared]
}

// Server serves MetaLog queries, graph statistics and schema validation
// over a shared frozen snapshot. Create one with New or NewFromGraph.
type Server struct {
	cfg  Config
	snap atomic.Pointer[snapshot]
	pool *pool
	mux  *http.ServeMux
	http *http.Server

	// pgViews holds the PG schemas SSST translated cfg.Schema into, keyed by
	// strategy, and schemaGSL the design /schema returns. Both are built once
	// by translateSchema and only read afterwards.
	pgViews   map[string]*models.PGSchemaView
	schemaGSL string

	// reloadMu serializes snapshot builds — reloads, mutation batches and
	// compactions — so generations are assigned in swap order; readers
	// never take it.
	reloadMu sync.Mutex

	// Background compactor lifecycle (see startAutoCompact / Shutdown).
	compactStop chan struct{}
	compactOnce sync.Once
	compactWG   sync.WaitGroup

	// Durability (see wal.go): the open log and the readiness gate for async
	// recovery.
	wal         *wal.Log
	recovering  atomic.Bool
	recoverFail atomic.Pointer[string]
	recoverWG   sync.WaitGroup
}

// New builds a server from cfg, loading and freezing cfg.Source. With a WAL
// configured, the base is the last checkpoint's snapshot (falling back to
// cfg.Source) and the log's acknowledged batches are replayed on top.
func New(cfg Config) (*Server, error) {
	if cfg.Source == "" {
		return nil, fmt.Errorf("server: Config.Source required (or use NewFromGraph)")
	}
	return open(cfg, nil)
}

// NewFromGraph builds a server from an in-memory graph; the server
// package's own tests are its callers. The graph is frozen immediately and not
// retained; later mutations of g are invisible to the server. A configured
// WAL replays over the graph, unless a checkpoint names an on-disk base.
func NewFromGraph(cfg Config, g *pg.Graph) (*Server, error) {
	return open(cfg, g)
}

// open is the construction both entry points share: open the log, build
// generation 1, replay, start the compactor. Generation 1 is built from the
// base the log's checkpoint names (a compacted snapshot or a reloaded
// source) when it names one, and else from the caller's: g, or cfg.Source
// without one.
func open(cfg Config, g *pg.Graph) (*Server, error) {
	s := newServer(cfg)
	if err := s.translateSchema(); err != nil {
		return nil, err
	}
	var logged []wal.Record
	if s.cfg.WALDir != "" {
		var err error
		if logged, err = s.openWAL(); err != nil {
			return nil, err
		}
	}
	path := s.cfg.Source
	if g != nil {
		path = ""
	}
	if s.wal != nil && s.wal.Base() != "" {
		path = s.wal.Base()
	}
	var first *snapshot
	var err error
	if path != "" {
		first, err = s.buildFromPath(path)
	} else {
		first, err = s.buildFromFrozen(g.Freeze())
	}
	if err != nil {
		s.closeWALOnFailure()
		return nil, err
	}
	first.gen = 1
	s.snap.Store(first)
	if err := s.startRecovery(logged); err != nil {
		return nil, err
	}
	s.startAutoCompact()
	return s, nil
}

// translateSchema runs SSST (Algorithm 1) over cfg.Schema once for each PG
// mapping in the repository — the views /validate reads — and renders the
// design /schema returns. Without a schema there is nothing to do.
func (s *Server) translateSchema() error {
	schema := s.cfg.Schema
	if schema == nil {
		return nil
	}
	s.pgViews = map[string]*models.PGSchemaView{}
	for _, m := range models.Repo(schema.OID, schema.OID+1, schema.OID+2) {
		if m.Model != "pg" {
			continue
		}
		res, err := models.TranslateSchema(schema, m.Model, m.Strategy)
		if err != nil {
			return fmt.Errorf("server: translating schema %s (%s): %w", schema.Name, m.Strategy, err)
		}
		view, err := models.ReadPGSchema(res.Dict, res.Mapping.TargetOID)
		if err != nil {
			return fmt.Errorf("server: translating schema %s (%s): %w", schema.Name, m.Strategy, err)
		}
		s.pgViews[m.Strategy] = view
	}
	s.schemaGSL = gsl.Serialize(schema)
	return nil
}

// startRecovery runs the WAL replay — inline, or in the background with
// WALAsyncRecovery, in which case the recovering gate answers 503 until the
// replay lands.
func (s *Server) startRecovery(logged []wal.Record) error {
	if s.wal == nil {
		return nil
	}
	if s.cfg.WALAsyncRecovery {
		s.recovering.Store(true)
		s.recoverWG.Add(1)
		go s.finishRecovery(logged)
		return nil
	}
	if err := s.replayWAL(logged); err != nil {
		s.closeWALOnFailure()
		return err
	}
	return nil
}

// closeWALOnFailure tears the log down on a failed construction, so its
// background syncer never outlives the half-built server.
func (s *Server) closeWALOnFailure() {
	if s.wal != nil {
		s.wal.Close() //nolint:errcheck // already failing
		s.wal = nil
	}
}

func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, pool: newPool(cfg.MaxInflight)}
	s.mux = http.NewServeMux()
	s.mux.Handle("/healthz", s.endpoint("healthz", http.MethodGet, false, s.handleHealthz))
	s.mux.Handle("/query", s.endpoint("query", http.MethodPost, true, s.handleQuery))
	s.mux.Handle("/explain", s.endpoint("explain", http.MethodPost, true, s.handleExplain))
	s.mux.Handle("/stats", s.endpoint("stats", http.MethodGet, true, s.handleStats))
	s.mux.Handle("/validate", s.endpoint("validate", http.MethodPost, true, s.handleValidate))
	s.mux.Handle("/schema", s.endpoint("schema", http.MethodGet, false, s.handleSchema))
	s.mux.Handle("/reload", s.endpoint("reload", http.MethodPost, false, s.handleReload))
	s.mux.Handle("/mutate", s.endpoint("mutate", http.MethodPost, false, s.handleMutate))
	s.mux.Handle("/compact", s.endpoint("compact", http.MethodPost, false, s.handleCompact))
	if cfg.Debug {
		s.mux.Handle("/debug/", obs.DebugHandler())
	}
	s.http = &http.Server{Handler: s.mux}
	return s
}

// current returns the serving snapshot; never nil after construction.
func (s *Server) current() *snapshot { return s.snap.Load() }

// Generation returns the current snapshot generation. It starts at 1 and
// only ever increases: failed reloads keep the serving snapshot and its
// generation.
func (s *Server) Generation() uint64 { return s.current().gen }

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It blocks, returning
// http.ErrServerClosed after a graceful shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// the background compactor (if any) is stopped and joined, in-flight
// requests run to completion (bounded by ctx), and the compute pool is
// drained before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopAutoCompact()
	err := s.http.Shutdown(ctx)
	s.pool.drain()
	s.recoverWG.Wait()
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// buildFromPath loads a dictionary file (through the retry policy and the
// server/load fault site) and builds its snapshot. The file's first bytes
// route it: a KGSNAP signature takes the binary snapshot fast path (mmap,
// no freeze), anything else is parsed as property-graph JSON.
func (s *Server) buildFromPath(path string) (*snapshot, error) {
	if err := fault.Hit(siteLoad); err != nil {
		return nil, err
	}
	if cli.IsSnapshot(path) {
		sf, err := snapfile.Open(path)
		if err != nil {
			return nil, fmt.Errorf("server: loading %s: %w", path, err)
		}
		sn, err := s.buildFromFrozen(sf.Frozen)
		if err != nil {
			sf.Close() //nolint:errcheck // already failing
			return nil, err
		}
		sn.file = sf
		return sn, nil
	}
	// Each attempt opens the file afresh, so a retry reads it from the start.
	var g *pg.Graph
	err := s.cfg.Retry.Do("server/read-json", func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = pg.ReadJSON(f)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("server: loading %s: %w", path, err)
	}
	return s.buildFromFrozen(g.Freeze())
}

// buildFromFrozen builds the generation serving an existing frozen view.
func (s *Server) buildFromFrozen(frozen *pg.Frozen) (*snapshot, error) {
	sn := &snapshot{frozen: frozen, view: frozen}
	if err := s.buildSubstrate(sn); err != nil {
		return nil, fmt.Errorf("server: extracting facts: %w", err)
	}
	return sn, nil
}

// over returns the generation that serves ov layered over sn's frozen base
// (Mutate, and the WAL replay). What belongs to the base carries forward —
// the planner statistics and the file mapping; its caches start empty, and
// its catalog and fact database are the caller's to fill.
func (sn *snapshot) over(ov *overlay.Overlay) *snapshot {
	return &snapshot{frozen: sn.frozen, view: ov, ov: ov, pstats: sn.pstats, file: sn.file}
}

// buildSubstrate fills in the query substrate of a generation from its view:
// the inferred catalog and the extracted fact database shared (read-only) by
// every query against it, and — with the planner on, for a generation that
// carries no statistics forward from its base — the statistics catalog.
func (s *Server) buildSubstrate(sn *snapshot) error {
	sn.cat = metalog.FromGraph(sn.view)
	db, err := metalog.ExtractFacts(sn.view, sn.cat)
	if err != nil {
		return err
	}
	sn.db = db
	if sn.pstats == nil && !s.cfg.PlannerOff {
		sn.pstats = metalog.ComputePlanStats(sn.view, sn.cat)
	}
	return nil
}

// install publishes next as the following generation; the caller holds
// reloadMu.
func (s *Server) install(next *snapshot) {
	next.gen = s.current().gen + 1
	s.snap.Store(next)
}

// swap is the one path from the serving generation to the next, shared by
// Mutate, Compact and Reload: refuse during recovery, serialize on reloadMu,
// run build against the serving generation inside a fault guard, install
// what it returns, count the outcome. On any failure — injected faults and
// contained panics included — the serving generation is untouched. build
// may decline (a nil generation: nothing is installed or counted), and may
// return a function to run after the install, still under the lock. Where a
// build writes the log relative to the install is its own decision; wal.go
// gives the three orderings and why.
func (s *Server) swap(op string, done, failed *obs.Counter,
	build func(cur *snapshot) (next *snapshot, after func(), err error)) (*snapshot, error) {
	if err := s.notRecovering(); err != nil {
		failed.Add(1)
		return nil, err
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.current()
	var next *snapshot
	var after func()
	err := fault.Guard("server/"+op, func() (err error) {
		next, after, err = build(cur)
		return err
	})
	if err != nil {
		failed.Add(1)
		return nil, err
	}
	if next == nil {
		return cur, nil
	}
	s.install(next)
	done.Add(1)
	if after != nil {
		after()
	}
	return next, nil
}

// ReloadInfo describes a completed snapshot swap.
type ReloadInfo struct {
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
}

// Reload builds a fresh snapshot from path (the configured source when
// empty) entirely off-line, then atomically swaps it in. On any failure —
// including injected faults and contained panics — the serving snapshot and
// generation are untouched.
func (s *Server) Reload(path string) (ReloadInfo, error) {
	if path == "" {
		path = s.cfg.Source
	}
	if path == "" {
		return ReloadInfo{}, fmt.Errorf("server: no reload path and no configured source")
	}
	next, err := s.swap("reload", &counters.Reloads, &counters.ReloadErrors, func(*snapshot) (*snapshot, func(), error) {
		next, err := s.buildFromPath(path)
		if err != nil {
			return nil, nil, err
		}
		if err := fault.Hit(siteSwap); err != nil {
			return nil, nil, err
		}
		if s.wal != nil {
			// A reload abandons the logged batches by design: the new source
			// is the state. Checkpoint BEFORE the swap — if the checkpoint
			// cannot land, the reload must fail, or a crash after the swap
			// would replay pre-reload batches over the post-reload source.
			if err := s.checkpoint(path); err != nil {
				return nil, nil, fmt.Errorf("server: checkpointing wal for reload: %w", err)
			}
		}
		return next, nil, nil
	})
	if err != nil {
		return ReloadInfo{}, err
	}
	return ReloadInfo{Generation: next.gen, Nodes: next.frozen.NumNodes(), Edges: next.frozen.NumEdges()}, nil
}

// apiResult is a successful endpoint outcome: marshaled body plus the
// snapshot generation it was computed from and the cache disposition.
type apiResult struct {
	body  []byte
	gen   uint64
	cache string // "", "hit" or "miss"
}

// reply marshals v as the body of a successful response computed from
// generation gen.
func reply(v any, gen uint64) (*apiResult, *apiError) {
	body, aerr := marshalBody(v)
	if aerr != nil {
		return nil, aerr
	}
	return &apiResult{body: body, gen: gen}, nil
}

// request reads a request body — at most Config.MaxBody bytes, telling "too
// large" from a transport error — and decodes it. A zero-length body goes to
// the decoder as it is; the decoder decides whether that is allowed.
func request[T any](s *Server, r *http.Request, decode func([]byte) (T, *apiError)) (req T, aerr *apiError) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		return req, errBadRequest("reading body: %v", err)
	}
	if int64(len(body)) > s.cfg.MaxBody {
		return req, errTooLarge(s.cfg.MaxBody)
	}
	return decode(body)
}

// endpoint wraps a handler with the cross-cutting request path: method
// check, metrics, per-endpoint latency, the server/handler fault site,
// panic containment, optional admission control, and uniform JSON framing.
// The snapshot generation travels in the X-KG-Generation header — never the
// body — so query responses stay bit-identical across a swap of identical
// data.
func (s *Server) endpoint(name, method string, pooled bool, h func(r *http.Request) (*apiResult, *apiError)) http.Handler {
	lat := obs.PublishLatency(vars, "latency_"+name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		counters.Requests.Add(1)
		var res *apiResult
		var aerr *apiError
		gerr := fault.Guard("server/handler", func() error {
			if r.Method != method {
				w.Header().Set("Allow", method)
				aerr = errMethod(method)
				return nil
			}
			if s.recovering.Load() {
				// Readiness gate: until the WAL replay lands, every endpoint
				// (healthz included) answers a typed 503.
				aerr = s.errRecovering()
				return nil
			}
			if err := fault.Hit(siteHandler); err != nil {
				aerr = mapEvalError(err)
				return nil
			}
			if pooled {
				if !s.pool.tryAcquire() {
					counters.Rejected.Add(1)
					aerr = errSaturated()
					return nil
				}
				defer s.pool.release()
			}
			res, aerr = h(r)
			return nil
		})
		if gerr != nil {
			// A contained panic anywhere on the request path.
			res, aerr = nil, mapEvalError(gerr)
		}
		if aerr != nil {
			counters.Errors.Add(1)
			w.Header().Set("X-KG-Generation", strconv.FormatUint(s.Generation(), 10))
			writeAPIError(w, aerr)
		} else {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-KG-Generation", strconv.FormatUint(res.gen, 10))
			if res.cache != "" {
				w.Header().Set("X-KG-Cache", res.cache)
			}
			w.Write(res.body) //nolint:errcheck // client gone
		}
		lat.Observe(time.Since(start))
	})
}

// ---- endpoint handlers ----

func (s *Server) handleHealthz(*http.Request) (*apiResult, *apiError) {
	sn := s.current()
	return reply(struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Nodes      int    `json:"nodes"`
		Edges      int    `json:"edges"`
	}{"ok", sn.gen, sn.view.NumNodes(), sn.view.NumEdges()}, sn.gen)
}

// queryResponse is the /query body: the sorted column set, one object per
// match in the engine's deterministic order (Limit permitting), and the
// returned row count.
type queryResponse struct {
	Columns []string         `json:"columns"`
	Rows    []map[string]any `json:"rows"`
	Count   int              `json:"count"`
	Total   int              `json:"total"`
}

func (s *Server) handleQuery(r *http.Request) (*apiResult, *apiError) {
	req, aerr := request(s, r, decodeQueryRequest)
	if aerr != nil {
		return nil, aerr
	}

	sn := s.current()
	key := resultKey{query: req.pattern.Key, limit: req.Limit}
	if cached, ok := sn.results.get(key); ok {
		counters.CacheHits.Add(1)
		return &apiResult{body: cached, gen: sn.gen, cache: "hit"}, nil
	}
	counters.CacheMisses.Add(1)

	var rows []metalog.QueryRow
	prep, _, err := s.preparedFor(sn, req.pattern)
	if err == nil {
		rows, err = s.queryRows(r.Context(), sn, prep)
	}
	if err != nil {
		return nil, mapEvalError(err)
	}

	out, aerr := marshalBody(buildQueryResponse(rows, req.Limit))
	if aerr != nil {
		return nil, aerr
	}
	sn.results.put(key, out, s.cfg.CacheSize)
	return &apiResult{body: out, gen: sn.gen, cache: "miss"}, nil
}

// queryRows runs a prepared query, under the configured deadline and engine
// options, against the snapshot's database. It is sealed, so the engine's
// clone (OwnInput stays false) shares every relation and the indexes earlier
// requests built, and each request pays for its own probes only. A pattern
// that names a property the shared database has no column for is refused
// there, and the Prepared evaluates itself against the view instead — a
// per-request extraction under its own catalog: slower, but the result is
// still cached under this generation.
func (s *Server) queryRows(ctx context.Context, sn *snapshot, prep *metalog.Prepared) ([]metalog.QueryRow, error) {
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	opts := vadalog.Options{
		Workers:  s.cfg.EngineWorkers,
		MaxFacts: s.cfg.MaxFacts,
		OnFault:  s.cfg.OnFault,
	}
	rows, err := prep.QueryDB(ctx, sn.db, opts)
	if errors.Is(err, metalog.ErrStaleDatabase) {
		counters.QueryReextracts.Add(1)
		rows, err = prep.QueryView(ctx, sn.view, opts)
	}
	return rows, err
}

// buildQueryResponse renders rows deterministically: columns are the sorted
// union of bound variables, cells are native JSON scalars (identifiers and
// Skolems as their canonical strings), and map-key marshaling keeps every
// row's field order sorted.
func buildQueryResponse(rows []metalog.QueryRow, limit int) queryResponse {
	colSet := map[string]bool{}
	for _, r := range rows {
		for k := range r {
			colSet[k] = true
		}
	}
	cols := make([]string, 0, len(colSet))
	for k := range colSet {
		cols = append(cols, k)
	}
	sort.Strings(cols)

	total := len(rows)
	if limit > 0 && total > limit {
		rows = rows[:limit]
	}
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		m := make(map[string]any, len(r))
		for k, v := range r {
			m[k] = cellJSON(v)
		}
		out[i] = m
	}
	return queryResponse{Columns: cols, Rows: out, Count: len(out), Total: total}
}

func cellJSON(v value.Value) any {
	switch v.K {
	case value.Int:
		return v.I
	case value.Float:
		return v.F
	case value.Bool:
		return v.B
	case value.String:
		return v.S
	default: // ID, Skolem, Null
		return v.String()
	}
}

func (s *Server) handleStats(*http.Request) (*apiResult, *apiError) {
	sn := s.current()
	sn.statsOnce.Do(func() {
		// The expensive graph walk runs once per generation — mutations,
		// compactions and reloads install a fresh snapshot struct, so its
		// sync.Once naturally re-arms. counters.StatsComputes counts the
		// walks; tests assert N requests cost one.
		counters.StatsComputes.Add(1)
		sn.stats = graphstats.Compute(sn.view)
	})
	// One response value: the cached graph stats, the provenance header of a
	// snapshot-file generation, and the live sections — the planner's cache
	// and run counters, the WAL's durability lag and compaction debt — of the
	// features that are on. A planner-off WAL-less server over a JSON source
	// marshals the bare stats.
	resp := struct {
		Build *snapfile.BuildInfo `json:"build,omitempty"`
		graphstats.Stats
		Planner *plannerSection `json:"planner,omitempty"`
		WAL     *wal.Stats      `json:"wal,omitempty"`
	}{Stats: sn.stats}
	if sn.file != nil {
		resp.Build = &sn.file.Info
	}
	if !s.cfg.PlannerOff {
		resp.Planner = s.plannerStats(sn)
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		resp.WAL = &ws
	}
	return reply(resp, sn.gen)
}

func (s *Server) handleValidate(r *http.Request) (*apiResult, *apiError) {
	if s.cfg.Schema == nil {
		return nil, &apiError{Status: http.StatusNotFound, Code: "no_schema",
			Message: "server was started without a schema; /validate is unavailable"}
	}
	req, aerr := request(s, r, decodeValidateRequest)
	if aerr != nil {
		return nil, aerr
	}
	// The strategy resolves as SSST resolves it: empty names the repository's
	// default PG mapping, an unknown one is refused. Only the mapping's
	// strategy is read, so the OIDs do not matter.
	m, err := models.SelectMapping(0, 0, 0, "pg", req.Strategy)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	sn := s.current()
	violations := models.ValidateInstance(sn.view, s.pgViews[m.Strategy])
	violations = append(violations, models.ValidateModifiers(sn.view, s.cfg.Schema)...)
	return reply(struct {
		Schema     string             `json:"schema"`
		Strategy   string             `json:"strategy"`
		Conforms   bool               `json:"conforms"`
		Count      int                `json:"count"`
		Violations []models.Violation `json:"violations"`
	}{s.cfg.Schema.Name, m.Strategy, len(violations) == 0, len(violations), violations}, sn.gen)
}

func (s *Server) handleSchema(*http.Request) (*apiResult, *apiError) {
	sn := s.current()
	resp := struct {
		Name       string              `json:"name"`
		GSL        string              `json:"gsl,omitempty"`
		NodeLabels map[string][]string `json:"nodeLabels"`
		EdgeLabels map[string][]string `json:"edgeLabels"`
	}{NodeLabels: sn.cat.NodeProps, EdgeLabels: sn.cat.EdgeProps}
	if s.cfg.Schema != nil {
		resp.Name = s.cfg.Schema.Name
		resp.GSL = s.schemaGSL
	}
	return reply(resp, sn.gen)
}

func (s *Server) handleReload(r *http.Request) (*apiResult, *apiError) {
	req, aerr := request(s, r, decodeReloadRequest)
	if aerr != nil {
		return nil, aerr
	}
	info, err := s.Reload(req.Path)
	if err != nil {
		return nil, mapError(err, "load_failed")
	}
	return reply(info, info.Generation)
}

func marshalBody(v any) ([]byte, *apiError) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, &apiError{Status: http.StatusInternalServerError, Code: "internal",
			Message: fmt.Sprintf("marshaling response: %v", err)}
	}
	return append(b, '\n'), nil
}
