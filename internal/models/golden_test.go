package models

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gsl"
	"repro/internal/supermodel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCheck compares got against testdata/<name>.golden, rewriting the
// file under -update. Golden files pin the exact emitted artifacts for the
// Figure 4 design, so any unintended change to the translation pipeline or
// the emitters shows up as a diff.
func goldenCheck(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test ./internal/models -run Golden -update`): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden file; re-run with -update if intentional.\n--- got ---\n%s\n--- want ---\n%s",
			name, clip(got), clip(string(want)))
	}
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "\n…(clipped)"
	}
	return s
}

func TestGoldenArtifacts(t *testing.T) {
	schema := supermodel.CompanyKG()

	// GSL canonical serialization.
	goldenCheck(t, "companykg.gsl", gsl.Serialize(schema))
	// GSL text rendering (graphemes).
	goldenCheck(t, "companykg.txt", gsl.RenderText(schema))
	// GSL DOT diagram (Figure 4).
	goldenCheck(t, "companykg.dot", gsl.RenderDOT(schema))
	// RDF-S deployment.
	goldenCheck(t, "companykg.rdfs.ttl", EmitRDFS(schema))
	// CSV layout.
	goldenCheck(t, "companykg.csv-layout", EmitCSVLayout(schema))

	// SSST artifacts, through the MetaLog pipeline.
	run := func(model, strategy string) *TranslateResult {
		res, err := TranslateSchema(schema, model, strategy)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pgRes := run("pg", "multi-label")
	pgView, err := ReadPGSchema(pgRes.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "figure6.constraints", EmitPGConstraints(pgView))
	goldenCheck(t, "figure6.dot", RenderPGViewDOT(pgView))

	relRes := run("relational", "")
	relView, err := ReadRelationalSchema(relRes.Dict, 125)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "figure8.sql", EmitSQL(relView))
	goldenCheck(t, "figure8.dot", RenderRelationalViewDOT(relView))
}
