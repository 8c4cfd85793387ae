package pg

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
)

var updateJSON = flag.Bool("update", false, "rewrite testdata/writejson-*.golden")

// jsonGoldenGraph covers what the writer's bytes depend on: every value
// kind, a multi-label node, a node with neither labels nor properties (both
// omitted), an edge with no properties, an unlabeled edge, strings that HTML
// escaping rewrites, non-ASCII text, and a float that needs an exponent.
func jsonGoldenGraph() *Graph {
	g := New()
	acme := g.AddNode([]string{"Company"}, Props{
		"name":   value.Str("Acme <Holding> & Sons"),
		"cap":    value.FloatV(1.5e21),
		"listed": value.BoolV(true),
		"note":   value.Str("città \"vecchia\"\n"),
	})
	bob := g.AddNode([]string{"Person", "Director"}, Props{
		"name": value.Str("Bob"),
		"age":  value.IntV(52),
		"zero": value.IntV(0),
	})
	bare := g.AddNode(nil, nil)
	shell := g.AddNode([]string{"Shell"}, Props{
		"why": value.NullV(3),
		"sk":  value.Skolem("own", value.IntV(1)),
		"neg": value.FloatV(-math.SmallestNonzeroFloat64),
	})
	g.MustAddEdge(bob.ID, acme.ID, "OWNS", Props{"w": value.FloatV(0.6)})
	g.MustAddEdge(shell.ID, acme.ID, "OWNS", nil)
	g.MustAddEdge(acme.ID, bare.ID, "", Props{"since": value.Str("<2020>")})
	return g
}

// TestWriteJSONGolden pins WriteJSON's bytes, for an empty view and for
// jsonGoldenGraph, over a graph and over its frozen snapshot: indentation,
// "null" for an empty construct list, omitted empty labels and properties,
// properties in key order, HTML escaping and the trailing newline.
func TestWriteJSONGolden(t *testing.T) {
	for name, g := range map[string]*Graph{"empty": New(), "graph": jsonGoldenGraph()} {
		path := filepath.Join("testdata", "writejson-"+name+".golden")
		for _, v := range []View{g, g.Freeze()} {
			var buf bytes.Buffer
			if err := WriteJSON(&buf, v); err != nil {
				t.Fatal(err)
			}
			if *updateJSON {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%T: WriteJSON of %s differs from %s:\n%s", v, name, path, buf.Bytes())
			}
		}
	}
}
