package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/overlay"
	"repro/internal/wal"
)

// Durability wiring: when Config.WALDir is set, every applied /mutate batch
// is appended to a write-ahead log (internal/wal) *before* the generation
// swap that acknowledges it, and startup replays the log over the base
// snapshot — so a crash loses nothing a client was told succeeded. The three
// swaps share one scaffold (Server.swap) but not their order of operations,
// which pins the invariant both ways:
//
//   - Mutate: validate (apply to a clone) → WAL append (+fsync under the
//     "always" policy) → swap. A failed append rejects the batch with the
//     serving snapshot untouched, so rejected and logged are mutually
//     exclusive; a crash between append and swap re-applies the batch on
//     restart, which the client never saw acknowledged — acknowledged ⊆
//     logged ⊆ replayed.
//   - Compact: swap first, then checkpoint the WAL against the persisted
//     snapshot (only when CompactDir wrote one). A failed or half-finished
//     truncation is harmless: the untruncated log replays over the old base
//     to the same merged view.
//   - Reload: checkpoint *before* the swap, because a reload abandons the
//     logged batches by design — the new source file is the state. A failed
//     checkpoint fails the reload; otherwise a crash after the swap would
//     replay pre-reload batches over the post-reload source.
//
// Recovery is synchronous inside New by default. With WALAsyncRecovery the
// server starts serving immediately and answers every endpoint — /healthz
// included — with a typed 503 "recovering" until the replay lands, giving
// operators a readiness probe over a real listener.

// openWAL opens the configured log and returns the acknowledged batches it
// holds past its checkpoint, for replayWAL.
func (s *Server) openWAL() ([]wal.Record, error) {
	pol, every, err := wal.ParseSyncPolicy(s.cfg.walSyncSpec())
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	l, rec, err := wal.Open(s.cfg.WALDir, wal.Options{Sync: pol, SyncEvery: every})
	if err != nil {
		return nil, fmt.Errorf("server: opening wal: %w", err)
	}
	s.wal = l
	return rec.Records, nil
}

func (c Config) walSyncSpec() string {
	if c.WALSync == "" {
		return "always"
	}
	return c.WALSync
}

// checkpoint stamps the log's checkpoint against base and counts the outcome.
func (s *Server) checkpoint(base string) error {
	if _, err := s.wal.Checkpoint(base); err != nil {
		counters.WALCheckpointErrors.Add(1)
		return err
	}
	counters.WALCheckpoints.Add(1)
	return nil
}

// replayWAL reconstructs the pre-crash overlay: every recovered batch is
// decoded from the /mutate wire format and applied over the base snapshot,
// then the query substrate is rebuilt once. The recovered snapshot replaces
// the base under the same generation — no reader has observed either while
// recovery gates the endpoints. Clears the recovering flag on success.
func (s *Server) replayWAL(logged []wal.Record) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if len(logged) > 0 {
		sn := s.current()
		ov := overlay.New(sn.frozen)
		for _, r := range logged {
			ops, err := overlay.DecodeOps(r.Payload)
			if err != nil {
				return fmt.Errorf("server: wal replay: batch %d: %w", r.Seq, err)
			}
			if _, err := ov.Apply(ops); err != nil {
				return fmt.Errorf("server: wal replay: batch %d: %w", r.Seq, err)
			}
			counters.WALReplayed.Add(1)
		}
		next := sn.over(ov)
		next.gen = sn.gen
		if err := s.buildSubstrate(next); err != nil {
			return fmt.Errorf("server: wal replay: %w", err)
		}
		s.snap.Store(next)
	}
	s.recovering.Store(false)
	return nil
}

// finishRecovery is the WALAsyncRecovery path: replay in the background and
// open the readiness gate. A replay failure leaves the server permanently
// unready (503 with the failure), never serving a state that is missing
// acknowledged writes.
func (s *Server) finishRecovery(logged []wal.Record) {
	defer s.recoverWG.Done()
	if err := s.replayWAL(logged); err != nil {
		msg := err.Error()
		s.recoverFail.Store(&msg)
	}
}

// errRecovering is the typed 503 every endpoint answers while (or after a
// failed) WAL replay.
func (s *Server) errRecovering() *apiError {
	if p := s.recoverFail.Load(); p != nil {
		return &apiError{Status: http.StatusServiceUnavailable, Code: "recovering",
			Message: "write-ahead log recovery failed: " + *p}
	}
	return &apiError{Status: http.StatusServiceUnavailable, Code: "recovering",
		Message: "replaying write-ahead log; retry shortly"}
}

// notRecovering gates the direct (non-HTTP) write APIs during an async
// replay, so a caller cannot interleave a mutation with the reconstruction.
func (s *Server) notRecovering() error {
	if s.recovering.Load() {
		return errors.New("server: write-ahead log recovery in progress")
	}
	return nil
}

// WALStats returns the live log's statistics; zero when no WAL is configured.
func (s *Server) WALStats() wal.Stats {
	if s.wal == nil {
		return wal.Stats{}
	}
	return s.wal.Stats()
}
