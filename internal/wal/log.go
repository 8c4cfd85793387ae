package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fault"
)

// Log is an open write-ahead log positioned for appending. Create one with
// Open; it is safe for concurrent use (one mutex — the serving layer already
// serializes writers, the lock exists for the background syncer).
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File // active segment
	size   int64    // active segment size (valid bytes)
	sealed int64    // total bytes across sealed segments
	segs   int      // segment count including the active one

	gen     uint64
	nextSeq uint64
	base    string // Base of the checkpoint in force; "" before the first

	// needRotate forces the next Append to rotate first — set when a
	// checkpoint landed but its rotation failed, so no record may land in a
	// segment the checkpoint condemned.
	needRotate bool
	broken     bool // an append left the tail unrecoverable; log refuses writes
	closed     bool

	appended  int64
	syncs     int64
	unsyncedB int
	unsyncedN int64
	lastSync  time.Time
	lastDur   time.Duration
	syncErr   error

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open scans (and repairs) a WAL directory and returns the log positioned
// for appending plus everything recovery needs: the checkpoint and the
// acknowledged records after it, in sequence order. Torn tails in the
// highest segment are truncated away; stale pre-checkpoint segments are
// deleted; damage anywhere else returns a typed error and no Log.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	if err := fault.Hit(siteReplay); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	sc, err := readDir(dir)
	if err != nil {
		return nil, nil, err
	}
	rec, live := sc.rec, sc.live

	// Repairs, exactly what rec reports: stale segments go, and the one
	// segment that may be damaged — the last — loses its torn tail, or goes
	// whole when it never got a header and so holds no acknowledged data.
	for _, s := range sc.stale {
		if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("wal: removing stale segment %s: %w", s.name, err)
		}
	}
	if n := len(live); n > 0 {
		switch s := &live[n-1]; {
		case s.damaged():
			if err := os.Remove(s.path); err != nil {
				return nil, nil, fmt.Errorf("wal: removing torn segment %s: %w", s.name, err)
			}
			live = live[:n-1]
		case s.torn:
			if err := os.Truncate(s.path, s.validLen); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", s.name, err)
			}
			s.size = s.validLen
		}
	}

	l := &Log{dir: dir, opts: opts, gen: 1, nextSeq: 1}
	if cp := rec.Checkpoint; cp != nil {
		l.gen = cp.Generation
		l.nextSeq = cp.Seq + 1
		l.base = cp.Base
	}
	for _, s := range live {
		l.gen = max(l.gen, s.gen)
		l.nextSeq = max(l.nextSeq, s.firstSeq+uint64(len(s.records)))
		l.sealed += s.size
		l.segs++
	}

	// Position for appending: continue the intact highest segment, or start
	// a fresh one.
	if n := len(live); n > 0 {
		tail := live[n-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: opening %s for append: %w", tail.name, err)
		}
		l.f = f
		l.size = tail.size
		l.sealed -= tail.size
	} else if err := l.newSegmentLocked(); err != nil {
		return nil, nil, err
	}

	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, rec, nil
}

// newSegmentLocked creates and activates the segment (l.gen, l.nextSeq).
func (l *Log) newSegmentLocked() error {
	path := filepath.Join(l.dir, segName(l.gen, l.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := encodeHeader(l.gen, l.nextSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()       //nolint:errcheck // already failing
		os.Remove(path) //nolint:errcheck // best-effort
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if l.opts.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()       //nolint:errcheck // already failing
			os.Remove(path) //nolint:errcheck // best-effort
			return fmt.Errorf("wal: syncing segment header: %w", err)
		}
	}
	syncDir(l.dir)
	l.f = f
	l.size = int64(len(hdr))
	l.segs++
	return nil
}

// rotateLocked seals the active segment and starts the next one. On failure
// the previous segment stays active (unless a new one was never opened, in
// which case needRotate stays set and Append keeps refusing).
func (l *Log) rotateLocked() error {
	if err := fault.Hit(siteRotate); err != nil {
		return err
	}
	old, oldSize := l.f, l.size
	if err := old.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := l.newSegmentLocked(); err != nil {
		return err
	}
	old.Close() //nolint:errcheck // sealed and synced
	l.sealed += oldSize
	l.unsyncedB, l.unsyncedN = 0, 0 // sealed segment was fsynced above
	return nil
}

// Append logs one batch payload, assigns it the next sequence number, and —
// under SyncAlways — fsyncs before returning. An error means the batch is
// NOT in the log (a partially written record is truncated back off), so the
// caller can safely reject the batch: rejected and logged are mutually
// exclusive.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.broken {
		return 0, ErrClosed
	}
	if err := fault.Hit(siteAppend); err != nil {
		return 0, err
	}
	if l.needRotate {
		if err := l.rotateLocked(); err != nil {
			return 0, fmt.Errorf("wal: rotation pending after checkpoint: %w", err)
		}
		l.needRotate = false
	} else if l.size >= l.opts.SegmentBytes {
		// Best-effort size rotation: on failure keep appending to the
		// (merely oversized) active segment.
		l.rotateLocked() //nolint:errcheck // retried on the next append
	}
	buf := encodeRecord(l.nextSeq, payload)
	if err := l.writeRecordLocked(buf); err != nil {
		return 0, err
	}
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			// The record is written but not durable; cut it back off so a
			// rejected batch can never resurface during replay.
			l.unwindLocked(l.size - int64(len(buf)))
			return 0, err
		}
	} else {
		l.unsyncedB++
		l.unsyncedN += int64(len(buf))
	}
	seq := l.nextSeq
	l.nextSeq++
	l.appended++
	return seq, nil
}

// writeRecordLocked appends buf to the active segment, unwinding a partial
// write so the tail stays record-aligned.
func (l *Log) writeRecordLocked(buf []byte) error {
	n, err := l.f.Write(buf)
	if err != nil {
		if n > 0 {
			l.unwindLocked(l.size)
		}
		return fmt.Errorf("wal: appending record: %w", err)
	}
	l.size += int64(n)
	return nil
}

// unwindLocked truncates the active segment back to offset `to`. If even
// that fails the tail is in an unknown state and the log refuses further
// appends (recovery would still stop at the torn record — the broken flag
// only protects this process from appending after garbage).
func (l *Log) unwindLocked(to int64) {
	if err := l.f.Truncate(to); err != nil {
		l.broken = true
		return
	}
	if _, err := l.f.Seek(to, 0); err != nil {
		l.broken = true
		return
	}
	l.size = to
}

// Sync fsyncs the active segment. It is a no-op when nothing is unsynced.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.unsyncedB == 0 {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := fault.Hit(siteFsync); err != nil {
		return err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs++
	l.lastSync = time.Now()
	l.lastDur = l.lastSync.Sub(start)
	l.unsyncedB, l.unsyncedN = 0, 0
	l.syncErr = nil
	return nil
}

// syncLoop is the SyncInterval background syncer. Failures are recorded
// (surfaced through Stats.SyncError) and retried on the next tick.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.unsyncedB > 0 {
				if err := l.syncLocked(); err != nil {
					l.syncErr = err
				}
			}
			l.mu.Unlock()
		}
	}
}

// Checkpoint marks every logged batch as folded into the durable base at
// basePath and truncates the log: generation++, atomic CHECKPOINT publish,
// rotation to a fresh segment of the new generation, deletion of the sealed
// older-generation segments. It has two outcomes. An error means nothing
// changed: the old checkpoint still rules. Nil means the new checkpoint is
// durable and in force — even when the rotation after it failed, because
// that is remembered (needRotate) and completed by the next Append or Open,
// and a caller told "failed" would go on serving a base the log no longer
// recovers from.
func (l *Log) Checkpoint(basePath string) (Checkpoint, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Checkpoint{}, ErrClosed
	}
	// The checkpoint claims every batch up to nextSeq-1 is in the base;
	// that includes unsynced ones, so make them durable first.
	if l.unsyncedB > 0 {
		if err := l.syncLocked(); err != nil {
			return Checkpoint{}, err
		}
	}
	cp := Checkpoint{Generation: l.gen + 1, Seq: l.nextSeq - 1, Base: basePath}
	if err := writeCheckpoint(l.dir, cp); err != nil {
		return Checkpoint{}, err
	}
	l.gen, l.base = cp.Generation, cp.Base
	if err := l.rotateLocked(); err != nil {
		// No new-generation segment exists yet. Appending to the condemned
		// one would lose data (the next Open deletes pre-checkpoint
		// segments), so force rotation before any further append.
		l.needRotate = true
		return cp, nil
	}
	l.needRotate = false // this rotation also settles one an earlier checkpoint left pending
	l.removeStaleLocked()
	return cp, nil
}

// removeStaleLocked deletes the sealed segments of generations before the
// current one and recounts segments and sealed bytes from what survived —
// best-effort: survivors are removed by the next Open.
func (l *Log) removeStaleLocked() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	l.segs, l.sealed = 0, 0
	active := filepath.Base(l.f.Name())
	for _, e := range entries {
		gen, _, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		if gen < l.gen && os.Remove(filepath.Join(l.dir, e.Name())) == nil {
			continue
		}
		l.segs++
		if e.Name() == active {
			continue
		}
		if fi, err := e.Info(); err == nil {
			l.sealed += fi.Size()
		}
	}
}

// NextSeq returns the sequence number the next Append will assign.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Generation returns the current truncation generation.
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Base returns the base path of the checkpoint in force — what recovery
// rebuilds the pre-log state from, and so the one file a later base must not
// be written over. Empty before the first checkpoint.
func (l *Log) Base() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Stats returns a point-in-time view of the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Generation:      l.gen,
		NextSeq:         l.nextSeq,
		Segments:        l.segs,
		Bytes:           l.sealed + l.size,
		Appended:        l.appended,
		Syncs:           l.syncs,
		UnsyncedBatches: l.unsyncedB,
		UnsyncedBytes:   l.unsyncedN,
	}
	if !l.lastSync.IsZero() {
		st.LastSyncUnixNano = l.lastSync.UnixNano()
		st.LastSyncNanos = int64(l.lastDur)
	}
	if l.syncErr != nil {
		st.SyncError = l.syncErr.Error()
	}
	return st
}

// Close stops the background syncer, makes the tail durable (best-effort
// final fsync unless the policy is off) and closes the active segment. The
// log accepts no appends afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.stop != nil {
		close(l.stop)
	}
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	var err error
	if l.opts.Sync != SyncOff && l.unsyncedB > 0 {
		if serr := l.f.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("wal: final fsync: %w", serr)
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: closing segment: %w", cerr)
	}
	return err
}
