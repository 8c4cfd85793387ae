package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// segScan is the outcome of validating one segment file.
type segScan struct {
	path     string
	name     string
	gen      uint64
	firstSeq uint64
	size     int64 // file size on disk
	validLen int64 // bytes up to and including the last valid record
	records  []Record
	// torn is true when the segment ends in bytes that do not form a valid
	// record — expected in the highest segment after a crash mid-append.
	torn bool
	// headless is true when the file is too short to hold a header at all
	// (a crash during segment creation); such a file carries no records.
	headless bool
	// err is a typed header failure (bad magic/version/checksum) — never
	// set for a merely torn tail.
	err error
}

// scanSegment reads and validates one segment file. Records reference
// freshly allocated payload slices (the file is read once into memory;
// batches are small relative to the graph they mutate).
//
// gen/firstSeq come from the file NAME, so a headless or header-damaged
// segment still sorts into its true chain position; a readable header that
// disagrees with the name is corruption.
func scanSegment(path string) segScan {
	s := segScan{path: path, name: filepath.Base(path)}
	s.gen, s.firstSeq, _ = parseSegName(s.name)
	data, err := os.ReadFile(path)
	if err != nil {
		s.err = fmt.Errorf("wal: reading %s: %w", path, err)
		return s
	}
	s.size = int64(len(data))
	if len(data) < headerLen {
		s.headless = true
		return s
	}
	gen, firstSeq, err := decodeHeader(data)
	if err != nil {
		s.err = fmt.Errorf("%w (%s)", err, s.name)
		return s
	}
	if gen != s.gen || firstSeq != s.firstSeq {
		s.err = fmt.Errorf("%w: segment %s header says gen %d seq %d", ErrCorrupt, s.name, gen, firstSeq)
		return s
	}
	off := int64(headerLen)
	next := firstSeq
	for off < s.size {
		seq, payload, span, ok := decodeRecord(data[off:])
		if !ok || seq != next {
			s.torn = true
			break
		}
		s.records = append(s.records, Record{Seq: seq, Payload: payload})
		off += int64(span)
		next++
	}
	s.validLen = off // on a torn tail: bytes before the first invalid record
	return s
}

// listSegments returns the directory's segment scans sorted by (generation,
// firstSeq) — the replay order.
func listSegments(dir string) ([]segScan, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []segScan
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, _, ok := parseSegName(e.Name()); !ok {
			continue
		}
		segs = append(segs, scanSegment(filepath.Join(dir, e.Name())))
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].gen != segs[j].gen {
			return segs[i].gen < segs[j].gen
		}
		if segs[i].firstSeq != segs[j].firstSeq {
			return segs[i].firstSeq < segs[j].firstSeq
		}
		return segs[i].name < segs[j].name
	})
	return segs, nil
}

// Recovery is what Open found on disk: the checkpoint (nil when none), the
// acknowledged post-checkpoint records in sequence order, and what cleanup
// Open performed (Replay: would perform).
type Recovery struct {
	Checkpoint *Checkpoint
	Records    []Record
	// TornBytes counts bytes truncated from the highest segment's torn
	// tail; TornSegment names the file (empty when the log was clean).
	TornBytes   int64
	TornSegment string
	// StaleSegments counts pre-checkpoint segments removed by the scan —
	// leftovers of a truncation the process died inside.
	StaleSegments int
}

// validateChain enforces the cross-segment invariants over the replayable
// segments (stale generations already filtered): strictly increasing
// generations/firstSeqs and gap-free global sequence numbering. A torn or
// headless segment is only tolerable in the last position — anywhere else a
// sealed segment is damaged and the log refuses with a typed error.
func validateChain(segs []segScan, cp *Checkpoint) error {
	// Without a checkpoint the chain is anchored at seq 1 — a missing first
	// segment is lost acknowledged data, not a fresh log.
	expect := uint64(1)
	if cp != nil {
		expect = cp.Seq + 1
	}
	for i, s := range segs {
		last := i == len(segs)-1
		if s.err != nil {
			if last {
				continue // dropped as a torn creation by Open
			}
			return s.err
		}
		if s.headless {
			if last {
				continue
			}
			return fmt.Errorf("%w: sealed segment %s has no header", ErrCorrupt, s.name)
		}
		if s.torn && !last {
			return fmt.Errorf("%w: sealed segment %s holds an invalid record", ErrCorrupt, s.name)
		}
		if s.firstSeq != expect {
			return fmt.Errorf("%w: segment %s starts at seq %d, want %d (missing acknowledged batches)",
				ErrCorrupt, s.name, s.firstSeq, expect)
		}
		expect = s.firstSeq + uint64(len(s.records))
	}
	return nil
}

// Inspect reports the state of a WAL directory without mutating it — the
// read-only view behind kgwal. Unlike Open it keeps going past damage,
// collecting a corruption report instead of failing on the first finding.
func Inspect(dir string) (*Info, error) {
	cp, err := readCheckpoint(dir)
	info := &Info{Dir: dir, Checkpoint: cp}
	if err != nil {
		info.Problems = append(info.Problems, err.Error())
		cp = nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	minGen := uint64(0)
	if cp != nil {
		minGen = cp.Generation
	}
	for i, s := range segs {
		si := SegmentInfo{
			File:       s.name,
			Generation: s.gen,
			FirstSeq:   s.firstSeq,
			Bytes:      s.size,
			Records:    len(s.records),
			Torn:       s.torn,
			Headless:   s.headless,
			Stale:      s.gen < minGen,
		}
		if s.err != nil {
			si.Error = s.err.Error()
		}
		if n := len(s.records); n > 0 {
			si.LastSeq = s.records[n-1].Seq
		}
		info.Segments = append(info.Segments, si)
		if si.Stale {
			continue
		}
		last := i == len(segs)-1
		switch {
		case s.err != nil:
			info.Problems = append(info.Problems, s.err.Error())
		case s.headless && !last:
			info.Problems = append(info.Problems, fmt.Sprintf("sealed segment %s has no header", s.name))
		case s.torn && !last:
			info.Problems = append(info.Problems, fmt.Sprintf("sealed segment %s holds an invalid record", s.name))
		case s.torn:
			info.TornBytes = s.size - s.validLen
		}
		for _, r := range s.records {
			if cp != nil && r.Seq <= cp.Seq {
				continue
			}
			if info.Records == 0 {
				info.FirstSeq = r.Seq
			} else if r.Seq != info.LastSeq+1 {
				info.Problems = append(info.Problems,
					fmt.Sprintf("sequence gap: %d follows %d", r.Seq, info.LastSeq))
			}
			info.LastSeq = r.Seq
			info.Records++
		}
	}
	return info, nil
}

// Info is Inspect's report.
type Info struct {
	Dir        string        `json:"dir"`
	Checkpoint *Checkpoint   `json:"checkpoint,omitempty"`
	Segments   []SegmentInfo `json:"segments"`
	// Records counts replayable (post-checkpoint) records; FirstSeq/LastSeq
	// bound them (0 when none).
	Records  int    `json:"records"`
	FirstSeq uint64 `json:"firstSeq,omitempty"`
	LastSeq  uint64 `json:"lastSeq,omitempty"`
	// TornBytes counts unacknowledged tail bytes the next Open will cut.
	TornBytes int64 `json:"tornBytes,omitempty"`
	// Problems lists corruption findings: sealed-segment damage, sequence
	// gaps, a malformed checkpoint. Empty for a healthy log.
	Problems []string `json:"problems,omitempty"`
}

// SegmentInfo describes one segment file in an Info report.
type SegmentInfo struct {
	File       string `json:"file"`
	Generation uint64 `json:"generation"`
	FirstSeq   uint64 `json:"firstSeq"`
	LastSeq    uint64 `json:"lastSeq,omitempty"`
	Records    int    `json:"records"`
	Bytes      int64  `json:"bytes"`
	Torn       bool   `json:"torn,omitempty"`
	Headless   bool   `json:"headless,omitempty"`
	Stale      bool   `json:"stale,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Replay computes what a recovery would replay — checkpoint, filtered
// records in sequence order, torn-tail accounting — without mutating the
// directory. Open starts from the same reading, then performs the repairs it
// reports (tail truncation, torn- and stale-segment deletion) and leaves the
// log open for appends; Replay is the read-only view behind kgwal -dump.
func Replay(dir string) (*Recovery, error) {
	sc, err := readDir(dir)
	if err != nil {
		return nil, err
	}
	return sc.rec, nil
}

// dirScan is the one reading of a log directory: what a recovery replays,
// and the segment scans Open's repairs and append position derive from.
type dirScan struct {
	rec *Recovery
	// live is the replayable chain in replay order, validated. Only its
	// last segment can be damaged: torn (rec.TornBytes past validLen), or
	// never given a valid header (no records, the whole file is torn).
	live []segScan
	// stale holds the pre-checkpoint segments — irrelevant however damaged,
	// the checkpoint base already contains everything they held.
	stale []segScan
}

// readDir reads a log directory without mutating it: checkpoint, segments
// split into stale and live, the live chain validated, the acknowledged
// post-checkpoint records collected and the torn tail accounted.
func readDir(dir string) (*dirScan, error) {
	cp, err := readCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	sc := &dirScan{rec: &Recovery{Checkpoint: cp}}
	for _, s := range segs {
		if cp != nil && s.gen < cp.Generation {
			sc.stale = append(sc.stale, s)
		} else {
			sc.live = append(sc.live, s)
		}
	}
	if err := validateChain(sc.live, cp); err != nil {
		return nil, err
	}
	rec := sc.rec
	rec.StaleSegments = len(sc.stale)
	for _, s := range sc.live {
		for _, r := range s.records {
			if cp != nil && r.Seq <= cp.Seq {
				continue // pre-checkpoint record in a kept segment
			}
			rec.Records = append(rec.Records, r)
		}
		if s.damaged() || s.torn {
			rec.TornSegment = s.name
			rec.TornBytes += s.size - s.validLen
		}
	}
	return sc, nil
}

// damaged reports a segment that never got a valid header: it holds no
// acknowledged data (validLen 0) and, in last position, is a torn creation.
func (s *segScan) damaged() bool { return s.err != nil || s.headless }
