package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/gsl"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/supermodel"
)

// The command under test is this test binary re-executed with
// KGVALIDATE_MAIN=1: TestMain then runs main over the arguments the test
// passed, so exit status and stdout are the real command's.
const mainEnv = "KGVALIDATE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes kgvalidate with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// TestValidateOutputGoldens pins kgvalidate's stdout and exit status in
// testdata/kg-<strategy>.stdout, over the instance `kggen -companies 200
// -seed 3 -mode kg` writes, as JSON and as a snapshot, with the built-in
// design and with the same design read from a GSL file. The instance
// conforms under multi-label (exit 0); child-edges reports a violation for
// every multi-labelled node (exit 1). The goldens were written when the
// command translated the schema through the native Go twin, so they are the
// wall that says the SSST translation validates alike.
func TestValidateOutputGoldens(t *testing.T) {
	dir := t.TempDir()
	g := fingraph.GenerateTopology(fingraph.DefaultConfig(200, 3)).CompanyKG()
	jsonPath := filepath.Join(dir, "kg.json")
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
	snapPath := filepath.Join(dir, "kg.snap")
	if _, err := snapfile.WriteFile(snapPath, g.Freeze(), snapfile.BuildInfo{Tool: "kgvalidate test"}); err != nil {
		t.Fatal(err)
	}
	gslPath := filepath.Join(dir, "companykg.gsl")
	if err := os.WriteFile(gslPath, []byte(gsl.Serialize(supermodel.CompanyKG())), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		strategy string
		exit     int
	}{{"multi-label", 0}, {"child-edges", 1}} {
		golden := filepath.Join("testdata", "kg-"+tc.strategy+".stdout")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"-in", jsonPath, "-companykg"},
			{"-in", snapPath, "-companykg"},
			{"-in", jsonPath, "-schema", gslPath},
		} {
			args = append(args, "-strategy", tc.strategy)
			stdout, stderr, code := run(t, args...)
			if code != tc.exit {
				t.Errorf("%v: exit %d, want %d (stderr %q)", args, code, tc.exit, stderr)
			}
			if stdout != string(want) {
				t.Errorf("%v: stdout differs from %s:\n%s", args, golden, stdout)
			}
		}
	}

	// An unknown strategy prints nothing on stdout and fails with the
	// repository's message, which lists the strategies it has.
	stdout, stderr, code := run(t, "-in", jsonPath, "-companykg", "-strategy", "nope")
	if code != 1 || stdout != "" || !strings.Contains(stderr, `has no strategy "nope" (have multi-label, child-edges)`) {
		t.Errorf("unknown strategy: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
