package snapfile_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pg"
	"repro/internal/pg/pgtest"
	"repro/internal/snapfile"
	"repro/internal/value"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.snap from the canonical graph")

// goldenGraph is the canonical snapshot content: every value kind, a
// multi-label node, an unlabeled node, an unlabeled edge, and an empty
// property bag, with fixed OIDs and symbols.
func goldenGraph() *pg.Frozen {
	g := pg.New()
	acme := g.AddNode([]string{"Company"}, pg.Props{
		"name":   value.Str("Acme Holding"),
		"cap":    value.FloatV(1.5e6),
		"listed": value.BoolV(true),
	})
	bob := g.AddNode([]string{"Person", "Director"}, pg.Props{
		"name": value.Str("Bob"),
		"age":  value.IntV(52),
	})
	shell := g.AddNode(nil, pg.Props{
		"why": value.NullV(3),
		"sk":  value.Skolem("own", value.IntV(1)),
	})
	g.MustAddEdge(bob.ID, acme.ID, "Owns", pg.Props{"w": value.FloatV(0.6)})
	g.MustAddEdge(shell.ID, acme.ID, "Owns", pg.Props{"w": value.FloatV(0.4)})
	g.MustAddEdge(acme.ID, shell.ID, "", nil)
	return g.Freeze()
}

var goldenInfo = snapfile.BuildInfo{
	Tool:        "kgsnap (golden)",
	Source:      "goldenGraph",
	SourceHash:  "00000000deadbeef",
	CreatedUnix: 1700000000,
	Params:      map[string]string{"kind": "golden", "rev": "1"},
}

const goldenPath = "testdata/golden.snap"

// TestGoldenBytes pins the version-1 encoding byte for byte: any change to
// the writer's output — layout, ordering, padding, checksums — fails here
// and forces an explicit format-version decision rather than a silent
// drift that would strand existing snapshot files.
func TestGoldenBytes(t *testing.T) {
	got, err := snapfile.Encode(goldenGraph(), goldenInfo)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("encoding drifted from the pinned golden file: %d vs %d bytes, first difference at offset %d — if intentional, bump the format version and regenerate with -update", len(got), len(want), i)
	}
}

// TestGoldenDecodes pins the decoded contents of the golden file: a reader
// change that misinterprets pinned bytes fails here even if round-trip
// tests (which push bugs through both sides) stay green.
func TestGoldenDecodes(t *testing.T) {
	snap, err := snapfile.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	f := snap.Frozen
	if f.NumNodes() != 3 || f.NumEdges() != 3 {
		t.Fatalf("got %d nodes / %d edges, want 3/3", f.NumNodes(), f.NumEdges())
	}
	if !reflect.DeepEqual(snap.Info, goldenInfo) {
		t.Fatalf("build info: %+v, want %+v", snap.Info, goldenInfo)
	}
	if got, want := pgtest.NodeLabels(f), []string{"Company", "Director", "Person"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("node labels %v, want %v", got, want)
	}
	if got, want := pgtest.EdgeLabels(f), []string{"", "Owns"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("edge labels %v, want %v", got, want)
	}
	var ids []pg.OID
	f.ScanNodes(func(r *pg.NodeRow) bool { ids = append(ids, r.ID); return true })
	acme, bob, shell := ids[0], ids[1], ids[2]
	if v, ok := f.Node(acme).Props["name"]; !ok || v != value.Str("Acme Holding") {
		t.Fatalf("acme name = %v, %v", v, ok)
	}
	if v, ok := f.Node(bob).Props["age"]; !ok || v != value.IntV(52) {
		t.Fatalf("bob age = %v, %v", v, ok)
	}
	if v, ok := f.Node(shell).Props["why"]; !ok || v != value.NullV(3) {
		t.Fatalf("shell why = %v, %v", v, ok)
	}
	if v, ok := f.Node(shell).Props["sk"]; !ok || v != value.Skolem("own", value.IntV(1)) {
		t.Fatalf("shell sk = %v, %v", v, ok)
	}
	var out, in []pg.EdgeRow
	f.ScanEdges(func(e *pg.EdgeRow) bool {
		if e.From == bob {
			out = append(out, *e)
		}
		if e.To == shell {
			in = append(in, *e)
		}
		return true
	})
	if len(out) != 1 || f.OutDegree(bob) != 1 || out[0].To != acme || out[0].Label != "Owns" {
		t.Fatalf("bob out-edges: %+v", out)
	}
	if v, ok := f.Edge(out[0].ID).Props["w"]; !ok || v != value.FloatV(0.6) {
		t.Fatalf("ownership weight = %v, %v", v, ok)
	}
	cols := f.Columns() // shell is node row 2
	if len(in) != 1 || cols.InOff[3]-cols.InOff[2] != 1 || in[0].Label != "" {
		t.Fatalf("shell in-edges: %+v", in)
	}
	assertViewEqual(t, goldenGraph(), f)
}

// TestHeaderGrowthCompat simulates the forward-compatibility story: a
// future revision that appends header fields (larger headerLen, zero-fill
// we do not understand) must still open with today's reader, because the
// reader locates the section table through headerLen instead of assuming
// the v1 size.
func TestHeaderGrowthCompat(t *testing.T) {
	base, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, newLen := range []uint32{72, 96, 256} {
		grown := growHeader(t, clone(base), newLen)
		snap, err := snapfile.Decode(grown)
		if err != nil {
			t.Fatalf("headerLen=%d: grown-header file rejected: %v", newLen, err)
		}
		if !reflect.DeepEqual(snap.Info, goldenInfo) {
			t.Fatalf("headerLen=%d: build info diverged", newLen)
		}
		assertViewEqual(t, goldenGraph(), snap.Frozen)
	}
}

// TestGoldenMappedZeroCopy asserts the golden file actually takes the mmap
// path on platforms that have one, so the zero-copy loader is what the
// rest of the suite exercises.
func TestGoldenMappedZeroCopy(t *testing.T) {
	snap, err := snapfile.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if !snap.Mapped() {
		t.Skip("mmap unsupported on this platform")
	}
	if snap.Path != goldenPath {
		t.Fatalf("snapshot path %q", snap.Path)
	}
}
