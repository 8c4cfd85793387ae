// Command kggen generates synthetic financial knowledge graphs (the
// Section 2.1 substrate substitute). It can emit either the full Company KG
// instance conforming to the Figure 4 schema, or the simple shareholding
// projection used for graph statistics and control reasoning.
//
// Usage:
//
//	kggen -companies 10000 -seed 42 -mode shareholding -out graph.json
//	kggen -companies 1000 -mode kg -out kg.json
//	kggen -companies 1000 -mode shareholding -csv-prefix out/   # nodes/edges CSV
//	kggen -companies 1000 -snap kg.snap   # binary snapshot for kgserve -in
//	kggen -companies 30000000 -workers 8 -snap big.snap   # 100M-edge scale
//
// A shareholding graph asked for as a snapshot only (-snap without -out or
// -csv-prefix) is generated as a batch stream through the parallel bulk
// loader, straight into the frozen snapshot — the mutable graph is never
// built, so memory stays bounded by the columnar result instead of the
// per-construct maps. The snapshot is byte-identical to the one the
// materialized pipeline writes for the same seed and size, so which pipeline
// ran is not something a caller chooses or can observe in the file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/snapfile"
)

func main() {
	companies := flag.Int("companies", 1000, "number of companies")
	seed := flag.Int64("seed", 42, "random seed")
	mode := flag.String("mode", "shareholding", "shareholding (simple OWNS graph) or kg (full Figure 4 instance)")
	out := flag.String("out", "", "write the graph as JSON to this file (default stdout)")
	snap := flag.String("snap", "", "write the frozen graph as a binary snapshot to this file (see internal/snapfile)")
	csvPrefix := flag.String("csv-prefix", "", "also write <prefix>nodes.csv and <prefix>edges.csv")
	workers := flag.Int("workers", 0, "bulk-loader worker count when the graph streams into -snap (0 = GOMAXPROCS)")
	batch := flag.Int("batch", 0, "rows per streamed batch (0 = 65536)")
	flag.Parse()

	cfg := fingraph.DefaultConfig(*companies, *seed)
	writeSnapshot := func(frozen *pg.Frozen) {
		info := snapfile.BuildInfo{
			Tool:        "kggen",
			Source:      "fingraph/" + *mode,
			CreatedUnix: time.Now().Unix(),
			Params: map[string]string{
				"companies": fmt.Sprint(*companies),
				"seed":      fmt.Sprint(*seed),
				"mode":      *mode,
			},
		}
		size, err := snapfile.WriteFile(*snap, frozen, info)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "kggen: wrote snapshot %s (%d bytes)\n", *snap, size)
	}
	if *mode == "shareholding" && *snap != "" && *out == "" && *csvPrefix == "" {
		writeSnapshot(streamShareholding(cfg, *workers, *batch))
		return
	}
	topo := fingraph.GenerateTopology(cfg)
	var g *pg.Graph
	switch *mode {
	case "shareholding":
		g = topo.Shareholding()
	case "kg":
		g = topo.CompanyKG()
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
	fmt.Fprintf(os.Stderr, "kggen: %d nodes, %d edges (%d companies, %d persons, %d stakes)\n",
		g.NumNodes(), g.NumEdges(), topo.Companies, topo.Persons, len(topo.Stakes))

	if *snap != "" {
		writeSnapshot(g.Freeze())
	}

	// JSON goes to stdout by default, but not when only a snapshot was
	// requested.
	if *out != "" || *snap == "" {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := pg.WriteJSON(w, g); err != nil {
			fatal(err)
		}
	}

	if *csvPrefix != "" {
		if dir := filepath.Dir(*csvPrefix + "x"); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
		nf, err := os.Create(*csvPrefix + "nodes.csv")
		if err != nil {
			fatal(err)
		}
		defer nf.Close()
		if err := g.WriteNodeCSV(nf); err != nil {
			fatal(err)
		}
		ef, err := os.Create(*csvPrefix + "edges.csv")
		if err != nil {
			fatal(err)
		}
		defer ef.Close()
		if err := g.WriteEdgeCSV(ef); err != nil {
			fatal(err)
		}
	}
}

// streamShareholding is the pipeline for a shareholding graph nobody needs in
// mutable form: two-pass generation → sharded bulk load → frozen snapshot.
func streamShareholding(cfg fingraph.Config, workers, batch int) *pg.Frozen {
	start := time.Now()
	ld := pg.NewBulkLoader(workers)
	stats, err := fingraph.StreamTopology(cfg, fingraph.StreamOptions{BatchSize: batch}, ld)
	if err != nil {
		fatal(err)
	}
	frozen, err := ld.Finish()
	if err != nil {
		fatal(err)
	}
	loadDur := time.Since(start)
	fmt.Fprintf(os.Stderr, "kggen: streamed %d nodes, %d edges (%d companies, %d persons) in %s (%.0f edges/sec)\n",
		frozen.NumNodes(), frozen.NumEdges(), stats.Companies, stats.Persons,
		loadDur.Round(time.Millisecond), float64(stats.Edges)/loadDur.Seconds())
	return frozen
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kggen:", err)
	os.Exit(1)
}
