package pg

import (
	"errors"
	"testing"

	"repro/internal/value"
)

// isTypedBulkErr reports whether err is one of the loader's declared
// failure modes — the only errors bulk ingest is allowed to produce.
func isTypedBulkErr(err error) bool {
	return errors.Is(err, ErrBadBatch) ||
		errors.Is(err, ErrDuplicateOID) ||
		errors.Is(err, ErrDanglingEdge) ||
		errors.Is(err, ErrLoaderDone)
}

// FuzzBulkLoadBatch drives the loader with arbitrary batch sequences —
// malformed shapes, duplicate and out-of-order OIDs, dangling endpoints,
// colliding names, calls after Finish — and asserts the ingest contract:
// never a panic, only typed errors, and any snapshot that is produced
// passes the FrozenFromColumns validation wall by construction.
func FuzzBulkLoadBatch(f *testing.F) {
	f.Add([]byte{2, 0, 3, 1, 2, 3, 1, 0, 2, 1, 1, 2})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 9, 9, 9, 2, 4, 4})
	f.Add([]byte("bulk-load-fuzz-corpus"))

	// Name palettes: deliberately unsorted, with label/key collisions, so
	// index bytes can produce both valid and malformed schema shapes.
	labels := []string{"Entity", "Business", "Entity", "A", "zz", ""}
	keys := []string{"fiscalCode", "Business", "fiscalCode", "b", ""}

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}

		l := NewBulkLoader(1 + int(next()%4))
		finished := false
		for len(data) > 0 {
			op := next()
			pick := func(pal []string, n int) []string {
				out := make([]string, 0, n)
				for i := 0; i < n; i++ {
					out = append(out, pal[int(next())%len(pal)])
				}
				return out
			}
			rows := int(op>>4) % 5
			oids := make([]OID, rows)
			var oid OID
			for i := range oids {
				// Deltas of 0 provoke duplicates; occasional negatives
				// provoke regressions and non-positive OIDs.
				oid += OID(int8(next())) % 7
				oids[i] = oid
			}
			nk := int(next()) % 3
			ks := pick(keys, nk)
			vals := make([]value.Value, (rows*nk+int(next())%3)%(rows*nk+2))
			for i := range vals {
				vals[i] = value.IntV(int64(i))
			}
			var err error
			switch op % 3 {
			case 0:
				err = l.AddNodes(NodeBatch{Labels: pick(labels, int(next())%3), Keys: ks, OIDs: oids, Vals: vals})
			case 1:
				from := make([]OID, len(oids))
				to := make([]OID, (len(oids)+int(next())%2)%(len(oids)+1))
				for i := range from {
					from[i] = OID(next())
				}
				for i := range to {
					to[i] = OID(next())
				}
				err = l.AddEdges(EdgeBatch{Label: labels[int(next())%len(labels)], Keys: ks, OIDs: oids, From: from, To: to, Vals: vals})
			default:
				var snap *Frozen
				snap, err = l.Finish()
				if err == nil {
					// Exercise reads on whatever survived: the snapshot
					// must serve without panicking.
					_ = snap.NumNodes() + snap.NumEdges()
					_, _ = viewLabels(snap)
					if snap.NumNodes() > 0 {
						_ = snap.Node(snap.nodeOIDs[0])
					}
				}
				finished = true
			}
			if err != nil && !isTypedBulkErr(err) {
				t.Fatalf("untyped bulk error: %v", err)
			}
		}
		if !finished {
			if _, err := l.Finish(); err != nil && !isTypedBulkErr(err) {
				t.Fatalf("untyped finish error: %v", err)
			}
		}
	})
}
