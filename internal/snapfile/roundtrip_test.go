package snapfile_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/pg"
	"repro/internal/pg/pgtest"
	"repro/internal/snapfile"
	"repro/internal/value"
)

// testGraph builds a pseudo-random graph across every value kind (strings
// with separators, ints, floats, bools, labeled nulls, Skolem IDs),
// multi-label and unlabeled nodes, unlabeled edges, and empty property
// bags — the full domain the format must round-trip.
func testGraph(rng *rand.Rand) *pg.Graph {
	g := pg.New()
	labels := []string{"Company", "Person", "KG", ""}
	var ids []pg.OID
	for i := 0; i < 3+rng.Intn(12); i++ {
		props := pg.Props{}
		if rng.Intn(2) == 0 {
			props["s"] = value.Str(fmt.Sprintf("str %d, with, commas \"and\" quotes", i))
		}
		if rng.Intn(2) == 0 {
			props["i"] = value.IntV(rng.Int63n(1000) - 500)
		}
		if rng.Intn(2) == 0 {
			props["f"] = value.FloatV(rng.Float64() * 100)
		}
		if rng.Intn(2) == 0 {
			props["b"] = value.BoolV(rng.Intn(2) == 0)
		}
		if rng.Intn(3) == 0 {
			props["n"] = value.NullV(rng.Int63n(40))
		}
		if rng.Intn(3) == 0 {
			props["k"] = value.Skolem("own", value.IntV(rng.Int63n(9)))
		}
		var ls []string
		if l := labels[rng.Intn(len(labels))]; l != "" {
			ls = append(ls, l)
			if rng.Intn(3) == 0 {
				ls = append(ls, "Extra")
			}
		}
		ids = append(ids, g.AddNode(ls, props).ID)
	}
	for i := 0; i < rng.Intn(2*len(ids)); i++ {
		props := pg.Props{}
		if rng.Intn(2) == 0 {
			props["w"] = value.FloatV(rng.Float64())
		}
		label := "REL"
		if rng.Intn(4) == 0 {
			label = ""
		}
		g.MustAddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], label, props)
	}
	return g
}

// assertViewEqual compares two frozen views across the whole read surface:
// canonical serialization, CSR adjacency and degrees, single-property reads
// of the scanned rows against the other side's point lookups, and the label
// counts.
func assertViewEqual(t *testing.T, want, got *pg.Frozen) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size: got %d/%d, want %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	var bw, bg bytes.Buffer
	if err := pg.WriteJSON(&bw, want); err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(&bg, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bw.Bytes(), bg.Bytes()) {
		t.Fatal("canonical serializations diverge")
	}
	wc, gc := want.Columns(), got.Columns()
	row := 0
	want.ScanNodes(func(n *pg.NodeRow) bool {
		inDeg := func(c pg.Columns) int32 { return c.InOff[row+1] - c.InOff[row] }
		if want.OutDegree(n.ID) != got.OutDegree(n.ID) || inDeg(wc) != inDeg(gc) {
			t.Fatalf("degrees of node %d diverge", n.ID)
		}
		props := got.Node(n.ID).Props
		for _, p := range n.Props {
			if v, ok := props[p.Key]; !ok || v != p.Val {
				t.Fatalf("node %d property %q: %v vs %v/%v", n.ID, p.Key, p.Val, v, ok)
			}
		}
		row++
		return true
	})
	want.ScanEdges(func(e *pg.EdgeRow) bool {
		props := got.Edge(e.ID).Props
		for _, p := range e.Props {
			if v, ok := props[p.Key]; !ok || v != p.Val {
				t.Fatalf("edge %d property %q diverges", e.ID, p.Key)
			}
		}
		return true
	})
	if !slices.Equal(wc.OutOff, gc.OutOff) || !slices.Equal(wc.OutAdj, gc.OutAdj) ||
		!slices.Equal(wc.InOff, gc.InOff) || !slices.Equal(wc.InAdj, gc.InAdj) {
		t.Fatal("CSR adjacency diverges")
	}
	for _, l := range pgtest.NodeLabels(want) {
		if want.NodeLabelCount(l) != got.NodeLabelCount(l) {
			t.Fatalf("NodeLabelCount(%q) diverges", l)
		}
	}
	for _, l := range pgtest.EdgeLabels(want) {
		if want.EdgeLabelCount(l) != got.EdgeLabelCount(l) {
			t.Fatalf("EdgeLabelCount(%q) diverges", l)
		}
	}
}

// TestDecodeRoundTripProperty: randomized graphs survive
// Freeze → Encode → Decode with every read path intact.
func TestDecodeRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		f := testGraph(rand.New(rand.NewSource(seed))).Freeze()
		data, err := snapfile.Encode(f, snapfile.BuildInfo{Tool: "test", Params: map[string]string{"seed": fmt.Sprint(seed)}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap, err := snapfile.Decode(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if snap.Mapped() {
			t.Fatal("Decode must not report a mapping")
		}
		if snap.Info.Tool != "test" || snap.Info.Params["seed"] != fmt.Sprint(seed) {
			t.Fatalf("seed %d: build info lost: %+v", seed, snap.Info)
		}
		assertViewEqual(t, f, snap.Frozen)
	}
}

// TestDecodeDoesNotAliasInput: Decode's documented contract is a full
// copy — corrupting the source buffer afterwards must not corrupt the
// decoded view.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	f := testGraph(rand.New(rand.NewSource(7))).Freeze()
	data, err := snapfile.Encode(f, snapfile.BuildInfo{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapfile.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}
	assertViewEqual(t, f, snap.Frozen)
}

// TestOpenRoundTrip: WriteFile → Open serves the identical view zero-copy
// from the mapping (where the platform supports it).
func TestOpenRoundTrip(t *testing.T) {
	f := testGraph(rand.New(rand.NewSource(3))).Freeze()
	path := filepath.Join(t.TempDir(), "g.snap")
	size, err := snapfile.WriteFile(path, f, snapfile.BuildInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != size {
		t.Fatalf("WriteFile reported %d bytes, file has %d", size, st.Size())
	}
	snap, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if !snap.Mapped() {
		t.Log("mmap unavailable on this platform; copying loader served the open")
	}
	assertViewEqual(t, f, snap.Frozen)
	if err := snap.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if snap.Mapped() {
		t.Fatal("snapshot still mapped after Close")
	}
}

// TestOpenBulkLoadedScans: an opened, bulk-loaded snapshot scans to exactly
// what its point lookups return, on rows whose stored order is not key-name order — "owner"
// is a label too, so it was interned with the labels, ahead of "name" — and
// on the shapes the row conventions turn on: unlabeled nodes, property-less
// nodes and edges.
func TestOpenBulkLoadedScans(t *testing.T) {
	ld := pg.NewBulkLoader(2)
	feed := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	feed(ld.AddNodes(pg.NodeBatch{Labels: []string{"owner"}, Keys: []string{"name", "owner"}, OIDs: []pg.OID{1, 2},
		Vals: []value.Value{value.Str("a"), value.IntV(1), value.Str("b"), value.IntV(2)}}))
	feed(ld.AddNodes(pg.NodeBatch{OIDs: []pg.OID{3}}))
	feed(ld.AddNodes(pg.NodeBatch{Labels: []string{"firm", "owner"}, OIDs: []pg.OID{4}}))
	feed(ld.AddEdges(pg.EdgeBatch{Label: "owns", Keys: []string{"name", "owner"}, OIDs: []pg.OID{5}, From: []pg.OID{1}, To: []pg.OID{4},
		Vals: []value.Value{value.Str("e"), value.FloatV(0.5)}}))
	feed(ld.AddEdges(pg.EdgeBatch{Label: "", OIDs: []pg.OID{6, 7}, From: []pg.OID{2, 3}, To: []pg.OID{3, 3}}))
	f, err := ld.Finish()
	feed(err)
	path := filepath.Join(t.TempDir(), "bulk.snap")
	_, err = snapfile.WriteFile(path, f, snapfile.BuildInfo{Tool: "test"})
	feed(err)
	snap, err := snapfile.Open(path)
	feed(err)
	defer snap.Close()

	var keys []string
	snap.Frozen.ScanNodes(func(r *pg.NodeRow) bool {
		for _, p := range r.Props {
			keys = append(keys, p.Key)
		}
		return false
	})
	if !reflect.DeepEqual(keys, []string{"owner", "name"}) {
		t.Fatalf("first row's keys in stored order = %v, want symbol order [owner name]", keys)
	}
	pgtest.CheckScans(t, snap.Frozen)
}

// TestOpenMmapFaultFallsBack: an injected fault at snapfile/mmap must not
// fail the open — it degrades to the copying loader with an identical view.
func TestOpenMmapFaultFallsBack(t *testing.T) {
	defer fault.Reset()
	f := testGraph(rand.New(rand.NewSource(11))).Freeze()
	path := filepath.Join(t.TempDir(), "g.snap")
	if _, err := snapfile.WriteFile(path, f, snapfile.BuildInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("snapfile/mmap", fault.Plan{Mode: fault.ModeError, Times: -1}); err != nil {
		t.Fatal(err)
	}
	snap, err := snapfile.Open(path)
	if err != nil {
		t.Fatalf("open must survive an mmap fault, got %v", err)
	}
	defer snap.Close()
	if snap.Mapped() {
		t.Fatal("open reported a mapping while the mmap site was armed")
	}
	assertViewEqual(t, f, snap.Frozen)
}

// TestEncodeDeterministic: equal snapshots and equal info encode to
// byte-identical files, the property the golden tests pin.
func TestEncodeDeterministic(t *testing.T) {
	info := snapfile.BuildInfo{Tool: "det", Params: map[string]string{"a": "1", "b": "2"}}
	g1 := testGraph(rand.New(rand.NewSource(5)))
	g2 := testGraph(rand.New(rand.NewSource(5)))
	d1, err := snapfile.Encode(g1.Freeze(), info)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := snapfile.Encode(g2.Freeze(), info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("two encodes of equal snapshots diverge")
	}
}

// TestProvenanceOnlyDiff: two snapshots of the same graph that differ only
// in build parameters must differ only in the build-info section (plus the
// table entry and header checksum describing it); every data section sits
// at identical offsets with identical bytes.
func TestProvenanceOnlyDiff(t *testing.T) {
	f := testGraph(rand.New(rand.NewSource(9))).Freeze()
	a, err := snapfile.Encode(f, snapfile.BuildInfo{Tool: "kgsnap", Params: map[string]string{"run": "a"}, CreatedUnix: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapfile.Encode(f, snapfile.BuildInfo{Tool: "kgsnap", Params: map[string]string{"run": "b", "extra": "x"}, CreatedUnix: 200})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := sections(t, a), sections(t, b)
	if len(sa) != len(sb) {
		t.Fatalf("section counts diverge: %d vs %d", len(sa), len(sb))
	}
	var dataBytesDiffer []uint32
	for id, ea := range sa {
		eb := sb[id]
		if id == 1 { // build info
			if bytes.Equal(a[ea.off:ea.off+ea.len], b[eb.off:eb.off+eb.len]) {
				t.Fatal("build-info sections are identical despite different params")
			}
			continue
		}
		if ea.off != eb.off || ea.len != eb.len {
			t.Fatalf("data section %d moved: [%d,+%d) vs [%d,+%d)", id, ea.off, ea.len, eb.off, eb.len)
		}
		if !bytes.Equal(a[ea.off:ea.off+ea.len], b[eb.off:eb.off+eb.len]) {
			dataBytesDiffer = append(dataBytesDiffer, id)
		}
	}
	if len(dataBytesDiffer) > 0 {
		t.Fatalf("data sections %v differ between provenance-only variants", dataBytesDiffer)
	}
}

// TestWriteFileFaultsLeaveNoPartialFile sweeps the write-side fault sites:
// a failed write or rename must leave an existing snapshot byte-identical
// and must not leave temporary files behind.
func TestWriteFileFaultsLeaveNoPartialFile(t *testing.T) {
	defer fault.Reset()
	f := testGraph(rand.New(rand.NewSource(2))).Freeze()
	f2 := testGraph(rand.New(rand.NewSource(4))).Freeze()
	for _, site := range []string{"snapfile/write", "snapfile/rename"} {
		for _, mode := range []fault.Mode{fault.ModeError, fault.ModePanic} {
			t.Run(fmt.Sprintf("%s/%s", site, mode), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "g.snap")
				fault.Reset()
				if _, err := snapfile.WriteFile(path, f, snapfile.BuildInfo{Tool: "orig"}); err != nil {
					t.Fatal(err)
				}
				before, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := fault.Arm(site, fault.Plan{Mode: mode, Times: -1}); err != nil {
					t.Fatal(err)
				}
				werr := fault.Guard(site, func() error {
					_, err := snapfile.WriteFile(path, f2, snapfile.BuildInfo{Tool: "new"})
					return err
				})
				if werr == nil {
					t.Fatal("write must fail while the site is armed")
				}
				fault.Reset()
				after, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, after) {
					t.Fatal("failed write mutated the published snapshot")
				}
				names, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, de := range names {
					if strings.Contains(de.Name(), ".tmp") {
						t.Fatalf("failed write left temporary file %s", de.Name())
					}
				}
				snap, err := snapfile.Open(path)
				if err != nil {
					t.Fatalf("snapshot unreadable after failed overwrite: %v", err)
				}
				defer snap.Close()
				if snap.Info.Tool != "orig" {
					t.Fatalf("snapshot provenance changed: %+v", snap.Info)
				}
			})
		}
	}
}

// TestNonFiniteFloatsThroughJSON: a snapshot holding +Inf, -Inf and NaN —
// which the format stores and JSON has no number for — writes with
// pg.WriteJSON and reads back with pg.ReadJSON to the same floats, beside a
// finite one whose bytes keep the plain number form.
func TestNonFiniteFloatsThroughJSON(t *testing.T) {
	g := pg.New()
	floats := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0.25}
	for _, f := range floats {
		g.AddNode([]string{"Business"}, pg.Props{"shareholdingCapital": value.FloatV(f)})
	}
	path := filepath.Join(t.TempDir(), "nonfinite.snap")
	if _, err := snapfile.WriteFile(path, g.Freeze(), snapfile.BuildInfo{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	snap, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var doc bytes.Buffer
	if err := pg.WriteJSON(&doc, snap.Frozen); err != nil {
		t.Fatal(err)
	}
	for _, form := range []string{`"str": "+Inf"`, `"str": "-Inf"`, `"str": "NaN"`, `"float": 0.25`} {
		if !strings.Contains(doc.String(), form) {
			t.Fatalf("document lacks %s:\n%s", form, doc.String())
		}
	}
	back, err := pg.ReadJSON(&doc)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range back.Nodes() {
		v := n.Props["shareholdingCapital"]
		if v.K != value.Float || math.Float64bits(v.F) != math.Float64bits(floats[i]) && !(math.IsNaN(v.F) && math.IsNaN(floats[i])) {
			t.Errorf("node %d reads back %v, want float %v", n.ID, v, floats[i])
		}
	}
	if back.NumNodes() != len(floats) {
		t.Fatalf("read back %d nodes, want %d", back.NumNodes(), len(floats))
	}
	for _, str := range []string{"inf", "Infinity", "1.5"} {
		if v, err := pg.DecodeValue(pg.JSONValue{Kind: "float", Str: str}); err == nil {
			t.Errorf("float %q decodes to %v, want an error", str, v)
		}
	}
}
