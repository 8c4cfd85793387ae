package cli

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gsl"
	"repro/internal/supermodel"
)

// TestLoadSchema: the built-in design wins over a file, a GSL file parses to
// the design it serializes, neither is nil without error, and an unreadable
// or malformed file is an error.
func TestLoadSchema(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "kg.gsl")
	want := gsl.Serialize(supermodel.CompanyKG())
	if err := os.WriteFile(good, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.gsl")
	if err := os.WriteFile(bad, []byte("schema {"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path      string
		companyKG bool
	}{{"", true}, {bad, true}, {good, false}} {
		s, err := LoadSchema(tc.path, tc.companyKG)
		if err != nil || s == nil || gsl.Serialize(s) != want {
			t.Errorf("LoadSchema(%q, %v) = %v, %v; want the Company KG", tc.path, tc.companyKG, s, err)
		}
	}
	if s, err := LoadSchema("", false); s != nil || err != nil {
		t.Errorf("LoadSchema with neither = %v, %v; want nil, nil", s, err)
	}
	for _, path := range []string{bad, filepath.Join(dir, "absent.gsl")} {
		if _, err := LoadSchema(path, false); err == nil {
			t.Errorf("LoadSchema(%q) succeeded", path)
		}
	}
}
