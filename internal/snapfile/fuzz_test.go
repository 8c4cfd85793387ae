package snapfile_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"testing"

	"repro/internal/snapfile"
)

// FuzzOpenSnapshot drives arbitrary bytes through the full decode pipeline.
// The invariant is the format's safety contract: any input either decodes
// into a structurally valid snapshot or is rejected with one of the typed
// errors — never a panic, never an out-of-bounds access (the latter caught
// by the fuzzer's sanitizers), never an untyped error.
func FuzzOpenSnapshot(f *testing.F) {
	// Seed corpus: two valid snapshots (the pinned golden file and a
	// randomized one), plus near-valid mutants that steer the fuzzer at the
	// interesting boundaries.
	if golden, err := os.ReadFile(goldenPath); err == nil {
		f.Add(golden)
		trunc := golden[:len(golden)/2]
		f.Add(trunc)
		flipped := clone(golden)
		flipped[70] ^= 0xFF
		f.Add(flipped)
		badVer := clone(golden)
		binary.LittleEndian.PutUint32(badVer[hdrVersionOff:], 9)
		f.Add(badVer)
		f.Add(shareOID(f, clone(golden)))
	}
	if data, err := snapfile.Encode(testGraph(rand.New(rand.NewSource(42))).Freeze(), snapfile.BuildInfo{Tool: "fuzz"}); err == nil {
		f.Add(data)
	}
	f.Add([]byte(snapfile.Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := snapfile.Decode(data)
		if err != nil {
			for _, sentinel := range []error{
				snapfile.ErrBadMagic, snapfile.ErrBadVersion, snapfile.ErrTruncated,
				snapfile.ErrChecksum, snapfile.ErrCorrupt,
			} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		// Accepted input must be a coherent snapshot: re-encoding it with
		// its own provenance must succeed and decode again.
		re, err := snapfile.Encode(snap.Frozen, snap.Info)
		if err != nil {
			t.Fatalf("accepted snapshot fails to re-encode: %v", err)
		}
		if _, err := snapfile.Decode(re); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
	})
}
