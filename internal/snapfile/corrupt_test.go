package snapfile_test

// The corruption suite: every malformed shape of a snapshot file — flipped
// header fields, truncations at section boundaries, zeroed checksums,
// structurally invalid content behind valid checksums — must surface as
// one of the typed errors, never a panic and never a silently-wrong view.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"

	"repro/internal/snapfile"
)

// baseImage returns a fresh encoded snapshot for mutation. The golden
// graph guarantees every section is populated, so content mutations always
// have bytes to land on.
func baseImage(t *testing.T) []byte {
	t.Helper()
	data, err := snapfile.Encode(goldenGraph(), snapfile.BuildInfo{Tool: "corrupt-base"})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mustTypedError asserts err matches exactly the expected sentinel (and is
// non-nil).
func mustTypedError(t *testing.T, err, want error) {
	t.Helper()
	if err == nil {
		t.Fatal("corrupt input was accepted")
	}
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
}

// anyTypedError asserts err matches at least one sentinel of the format's
// error taxonomy — the contract that no malformed input escapes typing.
func anyTypedError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("corrupt input was accepted")
	}
	for _, sentinel := range []error{
		snapfile.ErrBadMagic, snapfile.ErrBadVersion, snapfile.ErrTruncated,
		snapfile.ErrChecksum, snapfile.ErrCorrupt,
	} {
		if errors.Is(err, sentinel) {
			return
		}
	}
	t.Fatalf("error %v matches no typed sentinel", err)
}

// TestCorruptHeaderTargeted: precise error types for each header-level
// corruption.
func TestCorruptHeaderTargeted(t *testing.T) {
	base := baseImage(t)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty file", func(d []byte) []byte { return nil }, snapfile.ErrTruncated},
		{"magic prefix only", func(d []byte) []byte { return d[:5] }, snapfile.ErrTruncated},
		{"flipped magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }, snapfile.ErrBadMagic},
		{"not a snapshot", func(d []byte) []byte { return []byte(`{"nodes":[]}`) }, snapfile.ErrBadMagic},
		{"future version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrVersionOff:], 2)
			fixMetaCRCs(d)
			return d
		}, snapfile.ErrBadVersion},
		{"version zero", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrVersionOff:], 0)
			fixMetaCRCs(d)
			return d
		}, snapfile.ErrBadVersion},
		{"headerLen below minimum", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrLenOff:], 32)
			return d
		}, snapfile.ErrCorrupt},
		{"headerLen unaligned", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrLenOff:], 68)
			return d
		}, snapfile.ErrCorrupt},
		{"headerLen past EOF", func(d []byte) []byte {
			past := (uint32(len(d)) + 15) &^ 7 // aligned, beyond the file
			binary.LittleEndian.PutUint32(d[hdrLenOff:], past)
			return d
		}, snapfile.ErrTruncated},
		{"unknown flags", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[hdrFlagsOff:], 1)
			fixMetaCRCs(d)
			return d
		}, snapfile.ErrCorrupt},
		{"node count off by one", func(d []byte) []byte {
			n := binary.LittleEndian.Uint64(d[hdrNodesOff:])
			binary.LittleEndian.PutUint64(d[hdrNodesOff:], n+1)
			fixMetaCRCs(d)
			return d
		}, snapfile.ErrCorrupt},
		{"edge count off by one", func(d []byte) []byte {
			m := binary.LittleEndian.Uint64(d[hdrEdgesOff:])
			binary.LittleEndian.PutUint64(d[hdrEdgesOff:], m+1)
			fixMetaCRCs(d)
			return d
		}, snapfile.ErrCorrupt},
		{"symbol count off by one", func(d []byte) []byte {
			s := binary.LittleEndian.Uint64(d[hdrSymsOff:])
			binary.LittleEndian.PutUint64(d[hdrSymsOff:], s+1)
			fixMetaCRCs(d)
			return d
		}, snapfile.ErrCorrupt},
		{"node count overflows int32", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[hdrNodesOff:], 1<<40)
			fixMetaCRCs(d)
			return d
		}, snapfile.ErrCorrupt},
		{"section count zero", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrSectionsOff:], 0)
			hl := hdrLen(d) // header CRC only: the count is rejected before the table is read
			binary.LittleEndian.PutUint32(d[hl-4:], crc32.Checksum(d[:hl-4], testCRC))
			return d
		}, snapfile.ErrCorrupt},
		{"section count huge", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrSectionsOff:], 1<<20)
			hl := hdrLen(d)
			binary.LittleEndian.PutUint32(d[hl-4:], crc32.Checksum(d[:hl-4], testCRC))
			return d
		}, snapfile.ErrCorrupt},
		{"table checksum zeroed", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrTableCRCOff:], 0)
			binary.LittleEndian.PutUint32(d[hdrLen(d)-4:], 0)
			// header CRC must be valid for the zeroed-table-CRC bytes
			hl := hdrLen(d)
			binary.LittleEndian.PutUint32(d[hl-4:], crc32.Checksum(d[:hl-4], testCRC))
			return d
		}, snapfile.ErrChecksum},
		{"header checksum zeroed", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[hdrLen(d)-4:], 0)
			return d
		}, snapfile.ErrChecksum},
		{"reserved word flipped", func(d []byte) []byte {
			d[hdrReservedOff] = 0xAA // covered by the header CRC
			return d
		}, snapfile.ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := snapfile.Decode(tc.mutate(clone(base)))
			mustTypedError(t, err, tc.want)
		})
	}
}

// TestCorruptHeaderExhaustive flips one byte in every header word —
// covering each field without enumerating them — and requires a typed
// rejection for each.
func TestCorruptHeaderExhaustive(t *testing.T) {
	base := baseImage(t)
	for off := 0; off < int(hdrLen(base)); off += 4 {
		t.Run(fmt.Sprintf("byte_%d", off), func(t *testing.T) {
			d := clone(base)
			d[off] ^= 0x5A
			_, err := snapfile.Decode(d)
			anyTypedError(t, err)
		})
	}
}

// TestCorruptTruncations cuts the file at every section boundary (and a
// few interior points) and requires a typed rejection for each prefix.
func TestCorruptTruncations(t *testing.T) {
	base := baseImage(t)
	cuts := map[int]bool{1: true, 7: true, 40: true, 63: true, 64: true, len(base) - 1: true}
	for _, e := range sections(t, base) {
		cuts[int(e.off)] = true
		if end := int(e.off + e.len); end < len(base) {
			cuts[end] = true
		}
	}
	points := make([]int, 0, len(cuts))
	for p := range cuts {
		if p >= 0 && p < len(base) {
			points = append(points, p)
		}
	}
	sort.Ints(points)
	for _, p := range points {
		t.Run(fmt.Sprintf("at_%d", p), func(t *testing.T) {
			_, err := snapfile.Decode(base[:p])
			anyTypedError(t, err)
		})
	}
}

// TestCorruptSectionChecksums zeroes each section's stored checksum (with
// valid table and header checksums around it) and flips one payload byte
// per section: both must surface as ErrChecksum.
func TestCorruptSectionChecksums(t *testing.T) {
	base := baseImage(t)
	for id, e := range sections(t, base) {
		if e.crc != 0 {
			t.Run(fmt.Sprintf("zeroed_crc_section_%d", id), func(t *testing.T) {
				d := clone(base)
				binary.LittleEndian.PutUint32(tableEntry(d, e.idx)[24:], 0)
				fixMetaCRCs(d)
				_, err := snapfile.Decode(d)
				mustTypedError(t, err, snapfile.ErrChecksum)
			})
		}
		if e.len > 0 {
			t.Run(fmt.Sprintf("flipped_payload_section_%d", id), func(t *testing.T) {
				d := clone(base)
				d[e.off] ^= 0x5A
				_, err := snapfile.Decode(d)
				mustTypedError(t, err, snapfile.ErrChecksum)
			})
		}
	}
}

// TestCorruptTable: structural corruption of the section table itself.
func TestCorruptTable(t *testing.T) {
	base := baseImage(t)
	cases := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"duplicate section id", func(d []byte) {
			src := tableEntry(d, 0)
			copy(tableEntry(d, 1), src)
			fixMetaCRCs(d)
		}, snapfile.ErrCorrupt},
		{"required section renamed away", func(d []byte) {
			binary.LittleEndian.PutUint32(tableEntry(d, 20)[0:], 500)
			fixMetaCRCs(d)
		}, snapfile.ErrCorrupt},
		{"section id zero", func(d []byte) {
			binary.LittleEndian.PutUint32(tableEntry(d, 0)[0:], 0)
			fixMetaCRCs(d)
		}, snapfile.ErrCorrupt},
		{"unaligned section offset", func(d []byte) {
			rec := tableEntry(d, 3)
			off := binary.LittleEndian.Uint64(rec[8:])
			binary.LittleEndian.PutUint64(rec[8:], off+4)
			fixMetaCRCs(d)
		}, snapfile.ErrCorrupt},
		{"section past EOF", func(d []byte) {
			rec := tableEntry(d, 3)
			binary.LittleEndian.PutUint64(rec[16:], uint64(len(d)))
			fixMetaCRCs(d)
		}, snapfile.ErrTruncated},
		{"section overlapping header", func(d []byte) {
			rec := tableEntry(d, 3)
			binary.LittleEndian.PutUint64(rec[8:], 0)
			fixMetaCRCs(d)
		}, snapfile.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := clone(base)
			tc.mutate(d)
			_, err := snapfile.Decode(d)
			mustTypedError(t, err, tc.want)
		})
	}
}

// TestCorruptContent: checksums all valid, content structurally wrong —
// the deepest validation layer must reject with ErrCorrupt.
func TestCorruptContent(t *testing.T) {
	base := baseImage(t)
	secs := sections(t, base)
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"trailing bytes", func(d []byte) {}}, // handled below via append
		{"symbol offsets decrease", func(d []byte) {
			e := secs[2] // symOff
			binary.LittleEndian.PutUint32(d[e.off+4:], 1<<30)
			fixAllCRCs(d)
		}},
		{"value record unknown kind", func(d []byte) {
			e := secs[9] // nodePropVals
			d[e.off] = 99
			fixAllCRCs(d)
		}},
		{"value record nonzero padding", func(d []byte) {
			e := secs[9]
			d[e.off+1] = 1
			fixAllCRCs(d)
		}},
		{"value record string past blob", func(d []byte) {
			e := secs[9]
			d[e.off] = 1 // kind String
			binary.LittleEndian.PutUint32(d[e.off+4:], 1<<30)
			fixAllCRCs(d)
		}},
		{"node OIDs not ascending", func(d []byte) {
			e := secs[4] // nodeOIDs
			first := binary.LittleEndian.Uint64(d[e.off:])
			binary.LittleEndian.PutUint64(d[e.off+8:], first)
			fixAllCRCs(d)
		}},
		{"edge OID names a node", func(d []byte) { shareOID(t, d) }},
		{"non-positive edge OID", func(d []byte) {
			e := secs[10] // edgeOIDs
			binary.LittleEndian.PutUint64(d[e.off:], 0)
			fixAllCRCs(d)
		}},
		{"adjacency row out of range", func(d []byte) {
			e := secs[19] // outAdj
			binary.LittleEndian.PutUint32(d[e.off:], 1<<30)
			fixAllCRCs(d)
		}},
		{"build info not JSON", func(d []byte) {
			e := secs[1]
			copy(d[e.off:e.off+e.len], "not json at all")
			fixAllCRCs(d)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := clone(base)
			if tc.name == "trailing bytes" {
				d = append(d, 0, 0, 0, 0, 0, 0, 0, 0)
			} else {
				tc.mutate(d)
			}
			_, err := snapfile.Decode(d)
			mustTypedError(t, err, snapfile.ErrCorrupt)
		})
	}
}
