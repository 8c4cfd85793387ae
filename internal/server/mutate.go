package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
	"repro/internal/metalog"
	"repro/internal/overlay"
	"repro/internal/snapfile"
)

// The live write path. POST /mutate applies a batch of graph mutations on
// top of the serving snapshot without rebuilding it: the batch goes into an
// LSM-style overlay (internal/overlay) cloned from the current generation,
// the extracted fact database is maintained incrementally from the batch's
// net diff (metalog.ApplyFactsDelta), and the whole unit — merged view,
// catalog, fact database — swaps in as the next generation. A failed batch
// mutates only the clone, so the serving generation is untouched, bit for
// bit.
//
// Compaction folds the overlay into a fresh frozen snapshot (the PR 4
// two-phase discipline): the overlay's Compact reuses the freeze pipeline,
// the catalog and facts are re-inferred from the new base, and optionally
// the generation is persisted as a binary snapshot file. A failed compaction
// keeps serving the overlay generation; generations never move backwards.

// ErrBadMutation wraps batch-validation failures (unknown refs, duplicate
// handles, removed targets…) so the handler can answer 400 instead of 500.
var ErrBadMutation = errors.New("invalid mutation batch")

// maxMutateOps bounds a single batch independently of the body cap.
const maxMutateOps = 10_000

// MutateInfo describes an applied mutation batch.
type MutateInfo struct {
	Generation   uint64 `json:"generation"`
	Ops          int    `json:"ops"`
	AddedNodes   int    `json:"addedNodes"`
	AddedEdges   int    `json:"addedEdges"`
	RemovedNodes int    `json:"removedNodes"`
	RemovedEdges int    `json:"removedEdges"`
	ChangedNodes int    `json:"changedNodes"`
	// Incremental reports whether the fact database was maintained from the
	// batch's diff; false means the batch grew the catalog (a new label or
	// property column) and facts were re-extracted in full.
	Incremental bool `json:"incremental"`
	Nodes       int  `json:"nodes"`
	Edges       int  `json:"edges"`
	// DeltaSize is the overlay's delta entry count after the batch — the
	// compaction debt of the serving generation.
	DeltaSize int `json:"deltaSize"`
	// Assigned maps the batch's add_node handles to their assigned OIDs, so
	// clients can address created nodes in later batches.
	Assigned map[string]int64 `json:"assigned,omitempty"`
	// Seq is the batch's write-ahead-log sequence number; 0 when the server
	// runs without a WAL.
	Seq uint64 `json:"seq,omitempty"`
}

// Mutate applies a batch of mutations as the next serving generation. The
// batch is atomic at the serving boundary: it is applied to a clone of the
// current overlay (or a fresh one over the frozen base), and only a fully
// applied batch swaps in. On any error — validation, injected faults,
// contained panics — the serving snapshot is untouched.
func (s *Server) Mutate(ops []overlay.Op) (MutateInfo, error) {
	var info MutateInfo
	next, err := s.swap("mutate", &counters.Mutates, &counters.MutateErrors, func(sn *snapshot) (*snapshot, func(), error) {
		ov := sn.ov
		if ov == nil {
			ov = overlay.New(sn.frozen)
		} else {
			ov = ov.Clone()
		}
		diff, err := ov.Apply(ops)
		if err != nil {
			if errors.Is(err, fault.ErrInjected) {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("%w: %v", ErrBadMutation, err)
		}
		next := sn.over(ov)
		db, ok := metalog.ApplyFactsDelta(sn.db, sn.cat, diff)
		if ok {
			next.cat, next.db = sn.cat, db
		} else {
			// The batch needs columns the lineage catalog lacks: re-infer
			// the catalog from the merged view and re-extract in full.
			counters.MutateFallbacks.Add(1)
			if err := s.buildSubstrate(next); err != nil {
				return nil, nil, err
			}
		}
		info = MutateInfo{
			Ops:          len(ops),
			AddedNodes:   len(diff.AddedNodes),
			AddedEdges:   len(diff.AddedEdges),
			RemovedNodes: len(diff.RemovedNodes),
			RemovedEdges: len(diff.RemovedEdges),
			ChangedNodes: len(diff.ChangedNodes),
			Incremental:  ok,
			DeltaSize:    ov.DeltaSize(),
		}
		if len(diff.Handles) > 0 {
			info.Assigned = make(map[string]int64, len(diff.Handles))
			for name, id := range diff.Handles {
				info.Assigned[name] = int64(id)
			}
		}
		if s.wal != nil {
			// Log before the swap acknowledges: under the "always" policy
			// Append fsyncs, so an acknowledged batch survives any crash. A
			// failed append rejects the batch (the clone is discarded) —
			// rejected and logged are mutually exclusive, on both sides.
			payload, err := overlay.EncodeOps(ops)
			if err != nil {
				return nil, nil, err
			}
			seq, err := s.wal.Append(payload)
			if err != nil {
				counters.WALAppendErrors.Add(1)
				return nil, nil, fmt.Errorf("server: wal append: %w", err)
			}
			info.Seq = seq
			counters.WALAppends.Add(1)
		}
		return next, nil, nil
	})
	if err != nil {
		return MutateInfo{}, err
	}
	info.Generation = next.gen
	info.Nodes = next.view.NumNodes()
	info.Edges = next.view.NumEdges()
	return info, nil
}

// CompactInfo describes a compaction outcome.
type CompactInfo struct {
	Generation uint64 `json:"generation"`
	// Compacted is false when there was no overlay to fold (no-op; the
	// generation is unchanged).
	Compacted bool   `json:"compacted"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Path      string `json:"path,omitempty"`
}

// Compact folds the live overlay into a fresh frozen generation, re-deriving
// the query substrate from the new base and (when Config.CompactDir is set)
// persisting it as a binary snapshot file. Without a pending overlay it is a
// no-op. On failure the overlay generation keeps serving.
func (s *Server) Compact() (CompactInfo, error) {
	var path string
	compacted := false
	sn, err := s.swap("compact", &counters.Compactions, &counters.CompactErrors, func(cur *snapshot) (*snapshot, func(), error) {
		if cur.ov == nil {
			return nil, nil, nil
		}
		frozen, err := cur.ov.Compact()
		if err != nil {
			return nil, nil, err
		}
		next, err := s.buildFromFrozen(frozen)
		if err != nil {
			return nil, nil, err
		}
		compacted = true
		var after func()
		if s.cfg.CompactDir != "" {
			path = s.compactPath(cur)
			info := snapfile.BuildInfo{Tool: "kgserve", Source: "compaction",
				CreatedUnix: time.Now().Unix()}
			if _, err := snapfile.WriteFile(path, frozen, info); err != nil {
				return nil, nil, err
			}
			if s.wal != nil {
				// The compacted generation is durable on disk: once it
				// serves, checkpoint the WAL against it so recovery replays
				// only post-snapshot batches. Failure is tolerated (and
				// counted) — serving continues and the untruncated log
				// replays idempotently over the OLD base to the same merged
				// view.
				after = func() { s.checkpoint(path) } //nolint:errcheck // tolerated
			}
		}
		return next, after, nil
	})
	if err != nil {
		return CompactInfo{}, err
	}
	return CompactInfo{Generation: sn.gen, Compacted: compacted,
		Nodes: sn.view.NumNodes(), Edges: sn.view.NumEdges(), Path: path}, nil
}

// compactPath names the snapshot file the compaction of sn persists. With a
// log, the number is the generation its next checkpoint will stamp: it is
// persisted with the checkpoint and only ever grows for a WAL directory,
// where the serving generation restarts at 1 in every process — and a
// compaction that reused the path the checkpoint in force names as its base
// would, should its own checkpoint then fail or the process die first, leave
// a base that already holds the batches recovery replays over it. A reload
// can make any path the base, so that one path is stepped over by number.
// Without a log nothing recovers from the file, and it is named for the
// generation it holds.
func (s *Server) compactPath(sn *snapshot) string {
	n, base := sn.gen+1, ""
	if s.wal != nil {
		n, base = s.wal.Generation()+1, s.wal.Base()
	}
	for {
		path := filepath.Join(s.cfg.CompactDir, fmt.Sprintf("gen%06d.snap", n))
		if !sameFile(path, base) {
			return path
		}
		n++
	}
}

// sameFile reports whether two paths name one existing file.
func sameFile(a, b string) bool {
	fa, errA := os.Stat(a)
	fb, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(fa, fb)
}

// startAutoCompact launches the periodic compactor when configured.
func (s *Server) startAutoCompact() {
	if s.cfg.CompactEvery <= 0 {
		return
	}
	s.compactStop = make(chan struct{})
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		t := time.NewTicker(s.cfg.CompactEvery)
		defer t.Stop()
		for {
			select {
			case <-s.compactStop:
				return
			case <-t.C:
				// Failures are counted (compact_errors) and retried on the
				// next tick; the overlay generation keeps serving meanwhile.
				s.Compact() //nolint:errcheck
			}
		}
	}()
}

// stopAutoCompact stops and joins the compactor; safe to call repeatedly.
func (s *Server) stopAutoCompact() {
	if s.compactStop == nil {
		return
	}
	s.compactOnce.Do(func() { close(s.compactStop) })
	s.compactWG.Wait()
}

// ---- request decoding ----

// mutateRequest is the POST /mutate envelope; the ops array uses the wire
// format owned by internal/overlay (EncodeOps/DecodeOps) — the same bytes
// the write-ahead log records and replays.
type mutateRequest struct {
	Ops json.RawMessage `json:"ops"`
}

// decodeMutateRequest parses and validates a /mutate body. It is the surface
// FuzzDecodeMutation exercises: any input must produce either a batch or a
// typed error, never a panic. Deep validation (ref resolution, duplicate
// handles) stays in overlay.Apply, against live state.
func decodeMutateRequest(body []byte) ([]overlay.Op, *apiError) {
	var req mutateRequest
	if err := strictUnmarshal(body, &req); err != nil {
		return nil, errBadRequest("decoding mutate request: %v", err)
	}
	if len(req.Ops) == 0 {
		return nil, errBadRequest("empty mutation batch")
	}
	ops, err := overlay.DecodeOps(req.Ops)
	if err != nil {
		return nil, errBadRequest("decoding mutate request: %v", err)
	}
	if len(ops) == 0 {
		return nil, errBadRequest("empty mutation batch")
	}
	if len(ops) > maxMutateOps {
		return nil, errBadRequest("batch exceeds %d ops", maxMutateOps)
	}
	return ops, nil
}

// ---- endpoint handlers ----

func (s *Server) handleMutate(r *http.Request) (*apiResult, *apiError) {
	ops, aerr := request(s, r, decodeMutateRequest)
	if aerr != nil {
		return nil, aerr
	}
	info, err := s.Mutate(ops)
	if err != nil {
		return nil, mapError(err, "mutate_failed")
	}
	return reply(info, info.Generation)
}

func (s *Server) handleCompact(*http.Request) (*apiResult, *apiError) {
	info, err := s.Compact()
	if err != nil {
		return nil, mapError(err, "compact_failed")
	}
	return reply(info, info.Generation)
}
