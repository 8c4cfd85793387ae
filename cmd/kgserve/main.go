// Command kgserve serves a property-graph dictionary over HTTP: MetaLog
// pattern queries, graph statistics, schema validation and hot snapshot
// reloads, all against a shared frozen snapshot (see internal/server and
// DESIGN.md §11).
//
// Usage:
//
//	kgserve -in kg.json -addr :8080
//	kgserve -in kg.snap -addr :8080         # binary snapshot (see kgsnap): mmap cold-start
//	kgserve -in kg.json -companykg -cache 1024 -inflight 16 -debug
//
// Endpoints:
//
//	GET  /healthz   liveness, snapshot generation, graph size
//	POST /query     {"query": "<MetaLog pattern>", "limit": 0}
//	POST /explain   {"query": "<pattern>", "run": false} — the cost-based
//	                plan and estimates for the pattern under the current
//	                generation; "run": true adds the actual row count
//	GET  /stats     §2.1 topological statistics of the snapshot
//	POST /validate  {"strategy": "child-edges"} — an empty strategy is the
//	                default PG mapping, multi-label (needs -schema/-companykg;
//	                SSST translates the design once, at startup)
//	GET  /schema    catalog layout (+ GSL design when configured)
//	POST /reload    {"path": "other.json"} — atomic generation swap; the
//	                path may also be a binary .snap file (sniffed by magic)
//	POST /mutate    {"ops": [...]} — apply a batched graph mutation as the
//	                next generation (live write path over an overlay)
//	POST /compact   fold the live overlay into a fresh frozen generation
//
// With -wal-dir, every applied mutation batch is logged durably before it is
// acknowledged and replayed over the base snapshot on restart (crash
// recovery; see kgwal and DESIGN.md §14). -wal-sync picks the fsync policy.
// While the log replays on startup, every endpoint — /healthz included —
// answers a typed 503 "recovering".
//
// With -debug, /debug/vars (the vadalog and kgserve counter maps, with
// per-endpoint latency in the latter) and /debug/pprof are mounted.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/server"
)

func main() {
	in := flag.String("in", "", "dictionary to serve: property graph JSON, or a binary snapshot file (see kgsnap; sniffed by magic) for an mmap cold-start instead of parse+freeze")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	schemaFile := flag.String("schema", "", "GSL design file enabling /validate")
	companyKG := flag.Bool("companykg", false, "use the built-in Company KG design for /validate")
	inflight := flag.Int("inflight", 8, "max concurrently executing compute requests (excess get 429)")
	engineWorkers := flag.Int("engine-workers", 1, "vadalog workers per admitted query")
	maxFacts := flag.Int("max-facts", 1_000_000, "per-query derived-fact valve (0 = unlimited)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request evaluation deadline (negative = none)")
	cache := flag.Int("cache", 1024, "query-result LRU entries (0 disables)")
	planner := flag.Bool("planner", true, "cost-based query planning (statistics catalog, join ordering, demand; /explain)")
	planCache := flag.Int("plan-cache", 128, "compiled-plan LRU entries (negative disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	compactEvery := flag.Duration("compact-every", 0, "fold the live write overlay into a frozen generation at this interval (0 disables)")
	compactDir := flag.String("compact-dir", "", "persist compacted generations as binary snapshots in this directory")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: log every /mutate batch before acknowledging and replay it on startup (empty disables durability)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always, interval[:duration] or off")
	debug := flag.Bool("debug", false, "mount /debug/vars and /debug/pprof")
	ff := cli.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()

	policy, done, err := ff.Apply(os.Stdout)
	if err != nil {
		fatal(err)
	}
	if done {
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "kgserve: need -in <graph.json|graph.snap>")
		os.Exit(2)
	}

	schema, err := cli.LoadSchema(*schemaFile, *companyKG)
	if err != nil {
		fatal(err)
	}

	srv, err := server.New(server.Config{
		Source:        *in,
		Schema:        schema,
		MaxInflight:   *inflight,
		EngineWorkers: *engineWorkers,
		MaxFacts:      *maxFacts,
		Timeout:       *timeout,
		CacheSize:     *cache,
		PlannerOff:    !*planner,
		PlanCacheSize: *planCache,
		CompactEvery:  *compactEvery,
		CompactDir:    *compactDir,
		WALDir:        *walDir,
		WALSync:       *walSync,
		// Serve the readiness probe while the log replays: clients get a
		// typed 503 "recovering" from every endpoint until the replay lands.
		WALAsyncRecovery: *walDir != "",
		Retry:            ff.RetryPolicy(),
		OnFault:          policy,
		Debug:            *debug,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kgserve: serving generation %d on http://%s\n", srv.Generation(), ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "kgserve: %v — draining (budget %s)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kgserve:", err)
	os.Exit(1)
}
