package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/pg"
	"repro/internal/snapfile"
	"repro/internal/value"
)

// The command under test is this test binary re-executed with
// KGREASON_MAIN=1: TestMain then runs main over the arguments the test
// passed, so exit status, stdout and stderr are the real command's.
const mainEnv = "KGREASON_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes kgreason with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) ([]byte, string, int) {
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
		return stdout.Bytes(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.Bytes(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return nil, "", 0
}

// phaseTimes matches the load/reason/flush durations of kgreason's per-step
// report, the only part of its stderr that varies from run to run.
var phaseTimes = regexp.MustCompile(`load=\S+\s+reason=\S+\s+flush=\S+\s+`)

// TestReasonOutputGolden pins what `kgreason -component
// ownership,control,family` writes over the instance `kggen -companies 200
// -seed 3 -mode kg` writes, read as JSON and as a snapshot, at one and two
// workers: testdata/ownership-control-family.golden holds the SHA-256 and
// byte length of the enriched graph on stdout (~2.9 MB, too large to commit
// itself) followed by the per-step derived counts on stderr with the phase
// times cut out. Every input form and worker count must produce the same
// bytes.
func TestReasonOutputGolden(t *testing.T) {
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
	if _, err := snapfile.WriteFile(snapPath, g.Freeze(), snapfile.BuildInfo{Tool: "kgreason test"}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "ownership-control-family.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{jsonPath, snapPath} {
		for _, workers := range []string{"1", "2"} {
			args := []string{"-in", in, "-component", "ownership,control,family", "-workers", workers}
			stdout, stderr, code := run(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d (stderr %q)", args, code, stderr)
			}
			got := fmt.Sprintf("sha256 %x\nbytes %d\n%s", sha256.Sum256(stdout), len(stdout),
				phaseTimes.ReplaceAllString(stderr, ""))
			if got != string(want) {
				t.Errorf("%v: output differs from %s:\n%s", args, golden, got)
			}
		}
	}
}

// TestOutKeptOnFailedWrite: a write to -out that fails — an injected
// pg/write-json error — exits 1 and leaves the file an earlier run wrote as
// it was, with no temporary file beside it.
func TestOutKeptOnFailedWrite(t *testing.T) {
	dir := t.TempDir()
	g := pg.New()
	for i := 0; i < 300; i++ {
		g.AddNode([]string{"Business"}, pg.Props{"shareholdingCapital": value.FloatV(float64(i))})
	}
	in := filepath.Join(dir, "in.snap")
	if _, err := snapfile.WriteFile(in, g.Freeze(), snapfile.BuildInfo{Tool: "kgreason test"}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	earlier := []byte("{\"nodes\": null, \"edges\": null}\n")
	if err := os.WriteFile(out, earlier, 0o644); err != nil {
		t.Fatal(err)
	}

	_, stderr, code := run(t, "-in", in, "-component", "", "-chaos", "pg/write-json:error", "-out", out)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, earlier) {
		t.Errorf("-out file after the failed write holds %d bytes (%v), want the earlier %q", len(got), err, earlier)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Errorf("directory holds %v, want only in.snap and out.json", names)
	}
}
