package snapfile_test

// Byte-level test helpers: an independent re-implementation of the header
// and section-table layout. The tests parse and patch snapshot images with
// these instead of the package's own decoder, so a layout drift between
// writer and reader cannot cancel out.

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

const (
	hdrMagicOff    = 0
	hdrVersionOff  = 8
	hdrLenOff      = 12
	hdrFlagsOff    = 16
	hdrNodesOff    = 24
	hdrEdgesOff    = 32
	hdrSymsOff     = 40
	hdrSectionsOff = 48
	hdrTableCRCOff = 52
	hdrReservedOff = 56

	tblEntryLen = 32
)

var testCRC = crc32.MakeTable(crc32.Castagnoli)

type secEntry struct {
	idx int // table row
	off uint64
	len uint64
	crc uint32
}

// sections parses the section table of an encoded snapshot.
func sections(t testing.TB, data []byte) map[uint32]secEntry {
	t.Helper()
	hdrLen := uint64(binary.LittleEndian.Uint32(data[hdrLenOff:]))
	count := int(binary.LittleEndian.Uint32(data[hdrSectionsOff:]))
	m := make(map[uint32]secEntry, count)
	for i := 0; i < count; i++ {
		rec := data[hdrLen+uint64(i)*tblEntryLen:]
		id := binary.LittleEndian.Uint32(rec[0:])
		if _, dup := m[id]; dup {
			t.Fatalf("section %d appears twice", id)
		}
		m[id] = secEntry{
			idx: i,
			off: binary.LittleEndian.Uint64(rec[8:]),
			len: binary.LittleEndian.Uint64(rec[16:]),
			crc: binary.LittleEndian.Uint32(rec[24:]),
		}
	}
	return m
}

// tableEntry returns the byte slice of one section-table row.
func tableEntry(data []byte, row int) []byte {
	hdrLen := uint64(binary.LittleEndian.Uint32(data[hdrLenOff:]))
	return data[hdrLen+uint64(row)*tblEntryLen:][:tblEntryLen]
}

// fixMetaCRCs recomputes the table and header checksums after a test
// patched header or table bytes, leaving section checksums alone.
func fixMetaCRCs(data []byte) {
	hdrLen := uint64(binary.LittleEndian.Uint32(data[hdrLenOff:]))
	count := uint64(binary.LittleEndian.Uint32(data[hdrSectionsOff:]))
	table := data[hdrLen : hdrLen+count*tblEntryLen]
	binary.LittleEndian.PutUint32(data[hdrTableCRCOff:], crc32.Checksum(table, testCRC))
	binary.LittleEndian.PutUint32(data[hdrLen-4:], crc32.Checksum(data[:hdrLen-4], testCRC))
}

// fixAllCRCs additionally recomputes every section checksum from its
// payload, for tests that patch section contents and want the structural
// validation (not the checksum) to reject the file.
func fixAllCRCs(data []byte) {
	count := int(binary.LittleEndian.Uint32(data[hdrSectionsOff:]))
	for i := 0; i < count; i++ {
		rec := tableEntry(data, i)
		off := binary.LittleEndian.Uint64(rec[8:])
		l := binary.LittleEndian.Uint64(rec[16:])
		binary.LittleEndian.PutUint32(rec[24:], crc32.Checksum(data[off:off+l], testCRC))
	}
	fixMetaCRCs(data)
}

// growHeader rebuilds a snapshot image with a larger header, as a future
// format revision that appends header fields would produce: the extra
// header bytes are zero, the section table and every payload shift by the
// growth delta, and all checksums are recomputed. Version-1 readers must
// honor the headerLen field and open such files.
func growHeader(t *testing.T, data []byte, newLen uint32) []byte {
	t.Helper()
	oldLen := binary.LittleEndian.Uint32(data[hdrLenOff:])
	if newLen <= oldLen || newLen%8 != 0 {
		t.Fatalf("bad grown header length %d (old %d)", newLen, oldLen)
	}
	delta := uint64(newLen - oldLen)
	out := make([]byte, uint64(len(data))+delta)
	// Header fields stay at their v1 positions; the growth region is zero.
	copy(out, data[:hdrLen(data)-4])
	binary.LittleEndian.PutUint32(out[hdrLenOff:], newLen)
	// Table and payloads, shifted.
	copy(out[newLen:], data[hdrLen(data):])
	count := int(binary.LittleEndian.Uint32(out[hdrSectionsOff:]))
	for i := 0; i < count; i++ {
		rec := tableEntry(out, i)
		off := binary.LittleEndian.Uint64(rec[8:])
		binary.LittleEndian.PutUint64(rec[8:], off+delta)
	}
	fixMetaCRCs(out)
	return out
}

// shareOID patches an image of the golden graph (nodes 1–3, edges 4–6) so
// its first edge takes OID 3, which names a node, and fixes the checksums:
// only the column checks can refuse it.
func shareOID(t testing.TB, data []byte) []byte {
	e := sections(t, data)[10] // edgeOIDs
	binary.LittleEndian.PutUint64(data[e.off:], 3)
	fixAllCRCs(data)
	return data
}

func hdrLen(data []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(data[hdrLenOff:]))
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
