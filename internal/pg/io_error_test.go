package pg

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/value"
)

// Error-path coverage for the serialization layer: every reader must reject
// malformed input with a descriptive error, never a panic, and never a
// half-built graph that the caller might mistake for a successful read.

func TestReadJSONErrorPaths(t *testing.T) {
	cases := []struct {
		name, doc, wantSub string
	}{
		{"truncated document", `{"nodes":[{"id":1}`, "decoding JSON graph"},
		{"not JSON at all", `hello world`, "decoding JSON graph"},
		{"unknown value kind", `{"nodes":[{"id":1,"props":{"p":{"kind":"blob"}}}]}`, `unknown value kind "blob"`},
		{"unknown edge value kind", `{"nodes":[{"id":1},{"id":2}],"edges":[{"id":3,"label":"E","from":1,"to":2,"props":{"p":{"kind":"???"}}}]}`, "unknown value kind"},
		{"duplicate node id", `{"nodes":[{"id":1},{"id":1}]}`, "already exists"},
		{"edge to missing node", `{"nodes":[{"id":1}],"edges":[{"id":2,"label":"E","from":1,"to":99}]}`, "does not exist"},
		{"node id zero", `{"nodes":[{"id":0}]}`, "node OID 0 is not positive"},
		{"negative edge id", `{"nodes":[{"id":1},{"id":2}],"edges":[{"id":-1,"label":"E","from":1,"to":2}]}`, "edge OID -1 is not positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadJSON(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("ReadJSON accepted malformed input, got graph with %d nodes", len(g.Nodes()))
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if g != nil {
				t.Fatal("error return must not carry a partial graph")
			}
		})
	}
}

func TestReadCSVErrorPaths(t *testing.T) {
	goodNodes := "id,labels\n1,A\n2,B\n"
	goodEdges := "id,label,from,to\n3,E,1,2\n"
	cases := []struct {
		name, nodes, edges, wantSub string
	}{
		{"empty node stream", "", goodEdges, "no header"},
		{"bad node header", "oid,labels\n", goodEdges, "must start with id,labels"},
		{"ragged node row", "id,labels\n1,A,extra\n", goodEdges, "wrong number of fields"},
		{"non-numeric node id", "id,labels\nfoo,A\n", goodEdges, `bad node id "foo"`},
		{"empty edge stream", goodNodes, "", "no header"},
		{"bad edge header", goodNodes, "id,label,src,dst\n", "must start with id,label,from,to"},
		{"non-numeric edge id", goodNodes, "id,label,from,to\nx,E,1,2\n", `bad edge id "x"`},
		{"non-numeric edge source", goodNodes, "id,label,from,to\n3,E,x,2\n", `bad edge source "x"`},
		{"non-numeric edge target", goodNodes, "id,label,from,to\n3,E,1,x\n", `bad edge target "x"`},
		{"dangling edge", goodNodes, "id,label,from,to\n3,E,1,99\n", "does not exist"},
		{"negative node id", "id,labels\n-2,A\n", goodEdges, "node OID -2 is not positive"},
		{"edge id zero", goodNodes, "id,label,from,to\n0,E,1,2\n", "edge OID 0 is not positive"},
		{"truncated quoted cell", "id,labels\n1,\"A\n", goodEdges, "node CSV"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadCSV(strings.NewReader(tc.nodes), strings.NewReader(tc.edges))
			if err == nil {
				t.Fatal("ReadCSV accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if g != nil {
				t.Fatal("error return must not carry a partial graph")
			}
		})
	}
}

// randomGraph builds a pseudo-random graph exercising every value kind and
// the label/property shapes the serializers must preserve.
func randomGraph(rng *rand.Rand) *Graph {
	g := New()
	var ids []OID
	labels := []string{"Company", "Person", "KG", ""}
	for i := 0; i < 3+rng.Intn(10); i++ {
		props := Props{}
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
		props := Props{}
		if rng.Intn(2) == 0 {
			props["w"] = value.FloatV(rng.Float64())
		}
		g.MustAddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], "REL", props)
	}
	return g
}

// TestJSONRoundTripProperty: Read(Write(g)) == g for randomized graphs,
// compared via the canonical serialization.
func TestJSONRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var buf2 bytes.Buffer
		if err := g2.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if buf.String() != buf2.String() {
			t.Fatalf("seed %d: JSON round trip is lossy", seed)
		}
	}
}

// TestCSVRoundTripProperty: the CSV pair round-trips to the same canonical
// JSON serialization for randomized graphs.
func TestCSVRoundTripProperty(t *testing.T) {
	for seed := int64(100); seed < 125; seed++ {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		var nbuf, ebuf bytes.Buffer
		if err := g.WriteNodeCSV(&nbuf); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteEdgeCSV(&ebuf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadCSV(bytes.NewReader(nbuf.Bytes()), bytes.NewReader(ebuf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a, b := serialize(t, g), serialize(t, g2); a != b {
			t.Fatalf("seed %d: CSV round trip is lossy:\n%s\nvs\n%s", seed, a, b)
		}
	}
}
