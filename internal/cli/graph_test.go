package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/snapfile"
)

// TestOpenGraphEncodings: one graph written as JSON and as a snapshot opens
// to equal views — from a path and from standard input. Equality is by the
// snapshot encoder, a pure function of the frozen graph.
func TestOpenGraphEncodings(t *testing.T) {
	g := fingraph.GenerateTopology(fingraph.DefaultConfig(40, 3)).Shareholding()
	dir := t.TempDir()
	jsonPath, snapPath := filepath.Join(dir, "kg.json"), filepath.Join(dir, "kg.snap")
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSON(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := snapfile.WriteFile(snapPath, g.Freeze(), snapfile.BuildInfo{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	if IsSnapshot(jsonPath) || !IsSnapshot(snapPath) || IsSnapshot(filepath.Join(dir, "absent")) {
		t.Fatal("IsSnapshot misroutes: want JSON no, snapshot yes, absent file no")
	}
	want, err := snapfile.Encode(g.Freeze(), snapfile.BuildInfo{})
	if err != nil {
		t.Fatal(err)
	}

	stdin := os.Stdin
	defer func() { os.Stdin = stdin }()
	for _, path := range []string{jsonPath, snapPath} {
		for _, viaStdin := range []bool{false, true} {
			arg := path
			if viaStdin {
				in, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer in.Close()
				os.Stdin, arg = in, "-"
			}
			fz, err := OpenGraph(arg)
			if err != nil {
				t.Fatalf("OpenGraph(%s, stdin=%v): %v", filepath.Base(path), viaStdin, err)
			}
			got, err := snapfile.Encode(fz, snapfile.BuildInfo{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("OpenGraph(%s, stdin=%v) is not the graph that was written", filepath.Base(path), viaStdin)
			}
		}
	}

	if _, err := OpenGraph(filepath.Join(dir, "absent")); err == nil {
		t.Error("OpenGraph of an absent file must fail")
	}
}
