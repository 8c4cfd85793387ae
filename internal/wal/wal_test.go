package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/testutil"
)

func payloadN(i int) []byte {
	return []byte(fmt.Sprintf(`[{"op":"add_node","name":"n%d"}]`, i))
}

// mustOpen opens a log, failing the test on error.
func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

// appendN appends n payloads and returns their assigned sequence numbers.
func appendN(t *testing.T, l *Log, n int, from int) []uint64 {
	t.Helper()
	var seqs []uint64
	for i := 0; i < n; i++ {
		seq, err := l.Append(payloadN(from + i))
		if err != nil {
			t.Fatalf("Append #%d: %v", from+i, err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if rec.Checkpoint != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	seqs := appendN(t, l, 10, 0)
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if !bytes.Equal(r.Payload, payloadN(i)) {
			t.Fatalf("record %d payload = %s, want %s", i, r.Payload, payloadN(i))
		}
	}
	if got := l2.NextSeq(); got != 11 {
		t.Fatalf("NextSeq after recovery = %d, want 11", got)
	}
	// Appending after recovery continues the numbering.
	if seq, err := l2.Append(payloadN(10)); err != nil || seq != 11 {
		t.Fatalf("post-recovery Append = (%d, %v), want (11, nil)", seq, err)
	}
}

func TestRotationAndReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 50, 0)
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := mustOpen(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if len(rec.Records) != 50 {
		t.Fatalf("recovered %d records across segments, want 50", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloadN(i)) {
			t.Fatalf("record %d mismatch: seq=%d payload=%s", i, r.Seq, r.Payload)
		}
	}
}

// tailSegment returns the path of the highest (generation, firstSeq) segment.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1].path
}

func TestTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep int // records surviving the tear
		tear func(t *testing.T, path string)
	}{
		{"partial record", 4, func(t *testing.T, path string) {
			// Cut the last record in half — a crash mid-write(2).
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-9); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage tail", 5, func(t *testing.T, path string) {
			// A record header full of garbage after the valid prefix.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(bytes.Repeat([]byte{0xFF}, 24)); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped crc", 4, func(t *testing.T, path string) {
			// Flip one payload byte of the LAST record: its CRC no longer
			// holds, so the valid prefix ends before it.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{})
			appendN(t, l, 5, 0)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			tc.tear(t, tailSegment(t, dir))

			l2, rec := mustOpen(t, dir, Options{})
			if len(rec.Records) != tc.keep {
				t.Fatalf("recovered %d records, want %d (the intact prefix)", len(rec.Records), tc.keep)
			}
			if rec.TornBytes <= 0 || rec.TornSegment == "" {
				t.Fatalf("torn tail not reported: %+v", rec)
			}
			// The log must append cleanly after the repair and replay in full.
			wantSeq := uint64(tc.keep + 1)
			if seq, err := l2.Append(payloadN(99)); err != nil || seq != wantSeq {
				t.Fatalf("Append after repair = (%d, %v), want (%d, nil)", seq, err, wantSeq)
			}
			if err := l2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l3, rec3 := mustOpen(t, dir, Options{})
			defer l3.Close()
			if len(rec3.Records) != tc.keep+1 || rec3.TornBytes != 0 {
				t.Fatalf("post-repair replay: %d records, torn=%d", len(rec3.Records), rec3.TornBytes)
			}
		})
	}
}

func TestHeadlessTailSegmentDropped(t *testing.T) {
	// A crash during segment creation leaves a file too short for a header.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 3, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stub := filepath.Join(dir, segName(1, 4))
	if err := os.WriteFile(stub, []byte("KGW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
	if _, err := os.Stat(stub); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("headless segment not removed (err=%v)", err)
	}
}

func TestCorruptionMatrix(t *testing.T) {
	// Damage to SEALED state must refuse with a typed error, never repair
	// silently and never panic.
	setup := func(t *testing.T) string {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
		appendN(t, l, 50, 0) // several segments
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) < 3 {
			t.Fatalf("want >=3 segments, got %d (err=%v)", len(segs), err)
		}
		return dir
	}
	firstSeg := func(t *testing.T, dir string) string {
		segs, _ := listSegments(dir)
		return segs[0].path
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    error
	}{
		{"bad magic", func(t *testing.T, dir string) {
			path := firstSeg(t, dir)
			data, _ := os.ReadFile(path)
			copy(data, "NOTALOG!")
			os.WriteFile(path, data, 0o644)
		}, ErrBadMagic},
		{"bad version", func(t *testing.T, dir string) {
			path := firstSeg(t, dir)
			data, _ := os.ReadFile(path)
			binary.LittleEndian.PutUint32(data[8:], 99)
			binary.LittleEndian.PutUint32(data[32:], crc32.Checksum(data[:32], crcTable))
			os.WriteFile(path, data, 0o644)
		}, ErrBadVersion},
		{"header checksum", func(t *testing.T, dir string) {
			path := firstSeg(t, dir)
			data, _ := os.ReadFile(path)
			data[20] ^= 0xFF
			os.WriteFile(path, data, 0o644)
		}, ErrCorrupt},
		{"sealed segment record flipped", func(t *testing.T, dir string) {
			path := firstSeg(t, dir)
			data, _ := os.ReadFile(path)
			data[len(data)-1] ^= 0x01 // last record of a SEALED segment
			os.WriteFile(path, data, 0o644)
		}, ErrCorrupt},
		{"sequence gap", func(t *testing.T, dir string) {
			os.Remove(firstSeg(t, dir)) // drop acknowledged batches
		}, ErrCorrupt},
		{"malformed checkpoint", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, checkpointName), []byte("{nope"), 0o644)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := setup(t)
			tc.corrupt(t, dir)
			_, _, err := Open(dir, Options{})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

func TestCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 30, 0)
	if b := l.Base(); b != "" {
		t.Fatalf("base before the first checkpoint = %q", b)
	}
	cp, err := l.Checkpoint("/snapshots/gen31.snap")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cp.Generation != 2 || cp.Seq != 30 || cp.Base != "/snapshots/gen31.snap" {
		t.Fatalf("checkpoint = %+v", cp)
	}
	if g, b := l.Generation(), l.Base(); g != 2 || b != cp.Base {
		t.Fatalf("after checkpoint: generation %d base %q, want 2 and %q", g, b, cp.Base)
	}
	// Old-generation segments are gone; one fresh gen-2 segment remains.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.gen < 2 {
			t.Fatalf("stale segment survived truncation: %s", s.name)
		}
	}
	// Post-checkpoint appends replay alone.
	appendN(t, l, 5, 30)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 30 || rec.Checkpoint.Base != "/snapshots/gen31.snap" {
		t.Fatalf("recovered checkpoint = %+v", rec.Checkpoint)
	}
	if len(rec.Records) != 5 || rec.Records[0].Seq != 31 {
		t.Fatalf("recovered %d records starting at %d, want 5 from 31",
			len(rec.Records), rec.Records[0].Seq)
	}
	if b := l2.Base(); b != "/snapshots/gen31.snap" {
		t.Fatalf("base after reopening = %q", b)
	}
}

func TestCheckpointCrashLeavesStaleSegments(t *testing.T) {
	// Simulate dying between the CHECKPOINT publish and the stale-segment
	// deletion: write a checkpoint file by hand over a multi-segment log.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 30, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	before, _ := listSegments(dir)
	if err := writeCheckpoint(dir, Checkpoint{Generation: 2, Seq: 30, Base: "x"}); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.StaleSegments != len(before) {
		t.Fatalf("removed %d stale segments, want %d", rec.StaleSegments, len(before))
	}
	if len(rec.Records) != 0 {
		t.Fatalf("replayed %d pre-checkpoint records, want 0", len(rec.Records))
	}
	if g := l2.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	if seq, err := l2.Append(payloadN(0)); err != nil || seq != 31 {
		t.Fatalf("Append = (%d, %v), want (31, nil)", seq, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
		defer l.Close()
		appendN(t, l, 3, 0)
		st := l.Stats()
		if st.UnsyncedBatches != 0 || st.Syncs < 3 {
			t.Fatalf("SyncAlways left unsynced state: %+v", st)
		}
		if st.LastSyncUnixNano == 0 {
			t.Fatalf("last-sync time not recorded: %+v", st)
		}
	})
	t.Run("interval", func(t *testing.T) {
		leak := testutil.CheckGoroutineLeak(t)
		defer leak()
		l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
		appendN(t, l, 3, 0)
		deadline := time.Now().Add(2 * time.Second)
		for {
			if st := l.Stats(); st.UnsyncedBatches == 0 && st.Syncs > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("background syncer never caught up: %+v", l.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
	t.Run("off", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{Sync: SyncOff})
		appendN(t, l, 3, 0)
		if st := l.Stats(); st.UnsyncedBatches != 3 {
			t.Fatalf("SyncOff stats: %+v", st)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// A clean close still leaves a replayable log (write(2) happened).
		l2, rec := mustOpen(t, dir, Options{})
		defer l2.Close()
		if len(rec.Records) != 3 {
			t.Fatalf("recovered %d records, want 3", len(rec.Records))
		}
	})
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		pol  SyncPolicy
		dur  time.Duration
		fail bool
	}{
		{"always", SyncAlways, 0, false},
		{"off", SyncOff, 0, false},
		{"interval", SyncInterval, 0, false},
		{"interval:50ms", SyncInterval, 50 * time.Millisecond, false},
		{"interval:0s", 0, 0, true},
		{"interval:wat", 0, 0, true},
		{"sometimes", 0, 0, true},
	}
	for _, tc := range cases {
		pol, dur, err := ParseSyncPolicy(tc.in)
		if tc.fail {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if err != nil || pol != tc.pol || dur != tc.dur {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v, %v), want (%v, %v, nil)",
				tc.in, pol, dur, err, tc.pol, tc.dur)
		}
	}
}

func TestFaultAppend(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 2, 0)
	if err := fault.Arm("wal/append", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(payloadN(2)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Append under fault = %v, want injected", err)
	}
	fault.Reset()
	// The failed batch is not in the log; numbering continues unbroken.
	if seq, err := l.Append(payloadN(2)); err != nil || seq != 3 {
		t.Fatalf("Append after fault = (%d, %v), want (3, nil)", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
}

func TestFaultFsyncUnwindsRecord(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendN(t, l, 2, 0)
	sizeBefore := l.Stats().Bytes
	if err := fault.Arm("wal/fsync", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(payloadN(2)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Append under fsync fault = %v, want injected", err)
	}
	fault.Reset()
	if got := l.Stats().Bytes; got != sizeBefore {
		t.Fatalf("failed append left %d bytes, want %d — record not unwound", got, sizeBefore)
	}
	// rejected and logged are mutually exclusive: replay sees 2 records.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	if seq, err := l2.Append(payloadN(9)); err != nil || seq != 3 {
		t.Fatalf("Append after recovery = (%d, %v), want (3, nil)", seq, err)
	}
}

func TestFaultRotateDuringCheckpoint(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 5, 0)
	if err := fault.Arm("wal/rotate", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	// Two outcomes, not three: the CHECKPOINT rename is durable, so the call
	// reports the checkpoint it landed and no error — the failed rotation is
	// remembered, not returned.
	if cp, err := l.Checkpoint("base"); err != nil || cp.Generation != 2 || cp.Seq != 5 {
		t.Fatalf("Checkpoint under rotate fault = (%+v, %v), want generation 2 seq 5 and no error", cp, err)
	}
	// While the rotation cannot happen, no append may land in the condemned
	// generation-1 segment.
	if err := fault.Arm("wal/rotate", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(payloadN(5)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Append with the rotation still failing = %v, want injected", err)
	}
	fault.Reset()
	// Its base is the one in force; the forced rotation happens on the next
	// append, which must go to a generation-2 segment.
	if b := l.Base(); b != "base" {
		t.Fatalf("base after a landed checkpoint = %q, want %q", b, "base")
	}
	if seq, err := l.Append(payloadN(5)); err != nil || seq != 6 {
		t.Fatalf("Append after failed rotation = (%d, %v), want (6, nil)", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Generation != 2 {
		t.Fatalf("checkpoint = %+v, want generation 2", rec.Checkpoint)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 6 {
		t.Fatalf("recovered %+v, want just seq 6", rec.Records)
	}
}

// TestFaultCheckpointClearsPendingRotation: a second checkpoint that does
// rotate settles the rotation the first one left pending. Were it still
// pending, the next append would try to create the segment that now exists
// and refuse every write from then on.
func TestFaultCheckpointClearsPendingRotation(t *testing.T) {
	defer fault.Reset()
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	appendN(t, l, 5, 0)
	if err := fault.Arm("wal/rotate", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint("a"); err != nil {
		t.Fatalf("Checkpoint under rotate fault: %v", err)
	}
	fault.Reset()
	if cp, err := l.Checkpoint("b"); err != nil || cp.Generation != 3 {
		t.Fatalf("second Checkpoint = (%+v, %v), want generation 3", cp, err)
	}
	if seq, err := l.Append(payloadN(5)); err != nil || seq != 6 {
		t.Fatalf("Append after the settled rotation = (%d, %v), want (6, nil)", seq, err)
	}
}

func TestFaultReplay(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm("wal/replay", fault.Plan{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(t.TempDir(), Options{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Open under replay fault = %v, want injected", err)
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 20, 0)
	if _, err := l.Checkpoint("base.snap"); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 7, 20)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Problems) != 0 {
		t.Fatalf("healthy log reported problems: %v", info.Problems)
	}
	if info.Records != 7 || info.FirstSeq != 21 || info.LastSeq != 27 {
		t.Fatalf("inspect = %d records [%d,%d], want 7 [21,27]", info.Records, info.FirstSeq, info.LastSeq)
	}
	if info.Checkpoint == nil || info.Checkpoint.Base != "base.snap" {
		t.Fatalf("inspect checkpoint = %+v", info.Checkpoint)
	}

	// Inspect is read-only: a torn tail is reported but not repaired.
	tail := tailSegment(t, dir)
	fi, _ := os.Stat(tail)
	os.Truncate(tail, fi.Size()-3) //nolint:errcheck
	info, err = Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect torn: %v", err)
	}
	if info.TornBytes == 0 || info.Records != 6 {
		t.Fatalf("torn inspect = %+v", info)
	}
	if fi2, _ := os.Stat(tail); fi2.Size() != fi.Size()-3 {
		t.Fatalf("Inspect mutated the log")
	}

	// Sealed-segment damage shows up in Problems.
	segs, _ := listSegments(dir)
	data, _ := os.ReadFile(segs[0].path)
	copy(data, "NOTALOG!")
	os.WriteFile(segs[0].path, data, 0o644) //nolint:errcheck
	info, err = Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect corrupt: %v", err)
	}
	if len(info.Problems) == 0 {
		t.Fatalf("corrupt log reported no problems")
	}
}

func TestReplayIsReadOnly(t *testing.T) {
	// Replay must report exactly what Open would recover, without the repair.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 5, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tail := tailSegment(t, dir)
	fi, _ := os.Stat(tail)
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(rec.Records) != 4 || rec.TornBytes == 0 {
		t.Fatalf("Replay = %d records, torn=%d; want 4 records, torn>0", len(rec.Records), rec.TornBytes)
	}
	if fi2, _ := os.Stat(tail); fi2.Size() != fi.Size()-3 {
		t.Fatalf("Replay mutated the log")
	}
	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != len(rec.Records) {
		t.Fatalf("Replay (%d) and Open (%d) disagree", len(rec.Records), len(rec2.Records))
	}
	for i := range rec.Records {
		if rec.Records[i].Seq != rec2.Records[i].Seq ||
			!bytes.Equal(rec.Records[i].Payload, rec2.Records[i].Payload) {
			t.Fatalf("Replay and Open diverge at record %d", i)
		}
	}
}

func TestStatsShape(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncOff, SegmentBytes: 256})
	defer l.Close()
	appendN(t, l, 30, 0)
	st := l.Stats()
	if st.Appended != 30 || st.NextSeq != 31 || st.Generation != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Segments < 2 || st.Bytes <= 0 {
		t.Fatalf("stats segments/bytes = %+v", st)
	}
	// Bytes must equal what is actually on disk.
	var disk int64
	segs, _ := listSegments(l.dir)
	for _, s := range segs {
		disk += s.size
	}
	if st.Bytes != disk {
		t.Fatalf("Stats.Bytes = %d, disk = %d", st.Bytes, disk)
	}
}

func TestClosedLogRefuses(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append(payloadN(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log = %v, want ErrClosed", err)
	}
	if _, err := l.Checkpoint("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint on closed log = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on closed log = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, tc := range []struct{ gen, seq uint64 }{{1, 1}, {2, 31}, {1 << 40, 1 << 50}} {
		name := segName(tc.gen, tc.seq)
		g, s, ok := parseSegName(name)
		if !ok || g != tc.gen || s != tc.seq {
			t.Fatalf("parseSegName(%s) = (%d, %d, %v)", name, g, s, ok)
		}
	}
	for _, bad := range []string{"wal-.seg", "wal-xx-yy.seg", "other.seg", "wal-0000000000000001-0000000000000001.tmp", "CHECKPOINT"} {
		if _, _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName(%s) accepted", bad)
		}
	}
}
