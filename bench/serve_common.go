package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/server"
	"repro/internal/snapfile"
	"repro/internal/value"
)

// snapshotCreatedUnix pins the one provenance field that would otherwise
// differ between two builds of the same graph, so snapshot bytes repeat.
const snapshotCreatedUnix = 1_700_000_000

// tracedSink wraps the bulk loader so that the time the generator spends
// inside the sink shows as child spans of the stream span, leaving
// fingraph's own share as the stream span's self time.
type tracedSink struct {
	ld     *pg.BulkLoader
	tr     *tracer
	parent int
	rep    int
}

func (s tracedSink) Reserve(nodes, nodeProps, edges, edgeProps int) {
	s.ld.Reserve(nodes, nodeProps, edges, edgeProps)
}

func (s tracedSink) AddNodes(b pg.NodeBatch) error {
	id := s.tr.start("pg.BulkLoader.Add", "pg", s.parent, s.rep)
	defer s.tr.end(id)
	return s.ld.AddNodes(b)
}

func (s tracedSink) AddEdges(b pg.EdgeBatch) error {
	id := s.tr.start("pg.BulkLoader.Add", "pg", s.parent, s.rep)
	defer s.tr.end(id)
	return s.ld.AddEdges(b)
}

// ingest is the streaming data plane end to end: generator -> bulk loader
// -> frozen columns -> snapshot file on disk. tr may be nil.
func ingest(cfg fingraph.Config, path string, tr *tracer, parent, rep int) (graphShape, int64, error) {
	ld := pg.NewBulkLoader(procs)
	id := tr.start("fingraph.StreamTopology", "fingraph", parent, rep)
	var sink fingraph.BatchSink = ld
	if tr != nil {
		sink = tracedSink{ld, tr, id, rep}
	}
	st, err := fingraph.StreamTopology(cfg, fingraph.StreamOptions{}, sink)
	tr.end(id)
	if err != nil {
		return graphShape{}, 0, err
	}
	id = tr.start("pg.BulkLoader.Finish", "pg", parent, rep)
	frozen, err := ld.Finish()
	tr.end(id)
	if err != nil {
		return graphShape{}, 0, err
	}
	id = tr.start("snapfile.WriteFile", "snapfile", parent, rep)
	size, err := snapfile.WriteFile(path, frozen, snapfile.BuildInfo{
		Tool: "bench", Source: "fingraph/stream", CreatedUnix: snapshotCreatedUnix,
		Params: map[string]string{"companies": strconv.Itoa(cfg.Companies), "seed": strconv.FormatInt(cfg.Seed, 10)},
	})
	tr.end(id)
	return graphShape{Persons: st.Persons, Companies: st.Companies, Edges: st.Edges}, size, err
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// serveConfig is kgserve's flag defaults, spelled out so the numbers do not
// move when a default does.
func serveConfig(sz sizes, source string) server.Config {
	return server.Config{
		Source:        source,
		MaxInflight:   sz.Inflight,
		EngineWorkers: 1,
		MaxFacts:      1_000_000,
		Timeout:       30 * time.Second,
		CacheSize:     sz.ResultCache,
		PlanCacheSize: sz.PlanCache,
	}
}

// liveServer is a server.Server on a real loopback listener plus the HTTP
// client the workload's closed-loop clients share (one connection each).
type liveServer struct {
	srv    *server.Server
	url    string
	client *http.Client
	done   chan error
}

func startServer(cfg server.Config, clients int) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // already failing
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1), // one send, from the Serve goroutine
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
		}},
	}
	go func() { ls.done <- srv.Serve(ln) }()
	return ls, nil
}

// stop shuts the server down gracefully and waits for Serve to return.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.client.CloseIdleConnections()
	return err
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	cache  string // X-KG-Cache
	body   []byte
	wall   time.Duration
}

func (ls *liveServer) post(path string, body []byte) (reply, error) {
	start := time.Now()
	resp, err := ls.client.Post(ls.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-KG-Cache"), body: b, wall: time.Since(start)}, err
}

func (ls *liveServer) get(path string) (reply, error) {
	start := time.Now()
	resp, err := ls.client.Get(ls.url + path)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, wall: time.Since(start)}, err
}

// inProcess answers a request through a server's handler without a
// listener — how the reference server of the byte-equality check is asked.
func inProcess(srv *server.Server, path string, body []byte) (int, []byte) {
	req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := &recorder{header: http.Header{}, status: http.StatusOK}
	srv.Handler().ServeHTTP(rec, req)
	return rec.status, rec.buf.Bytes()
}

type recorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }

// answerMatches says whether a /query body holds exactly the rows the
// reference evaluation returned, cell by cell and in order.
func answerMatches(body []byte, rows []metalog.QueryRow) error {
	var resp struct {
		Rows  []map[string]json.RawMessage `json:"rows"`
		Total int                          `json:"total"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Total != len(rows) || len(resp.Rows) != len(rows) {
		return fmt.Errorf("server returned %d of %d rows, reference has %d", len(resp.Rows), resp.Total, len(rows))
	}
	for i, want := range rows {
		got := resp.Rows[i]
		if len(got) != len(want) {
			return fmt.Errorf("row %d has %d cells, reference %d", i, len(got), len(want))
		}
		for name, v := range want {
			var cell any
			switch v.K {
			case value.Int:
				cell = v.I
			case value.Float:
				cell = v.F
			case value.Bool:
				cell = v.B
			case value.String:
				cell = v.S
			default:
				cell = v.String()
			}
			wantJSON, _ := json.Marshal(cell)
			if !bytes.Equal(bytes.TrimSpace(got[name]), wantJSON) {
				return fmt.Errorf("row %d cell %s = %s, reference %s", i, name, got[name], wantJSON)
			}
		}
	}
	return nil
}
