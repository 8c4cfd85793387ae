package pg

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

func noSleep(time.Duration) {}

func TestReadJSONRetryRecoversFromInjectedFault(t *testing.T) {
	defer fault.Reset()
	g := seedGraph()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := buf.String()

	// First attempt fails with an injected error, second succeeds.
	if err := fault.Arm("pg/read-json", fault.Plan{Mode: fault.ModeError, After: 1, Times: 1}); err != nil {
		t.Fatal(err)
	}
	opens := 0
	got, err := ReadJSONRetry(func() (io.ReadCloser, error) {
		opens++
		return io.NopCloser(strings.NewReader(want)), nil
	}, fault.RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if opens != 2 {
		t.Fatalf("open called %d times, want 2 (fresh stream per attempt)", opens)
	}
	// The recovered read is bit-identical to a no-fault read.
	if s := serialize(t, got); s != want {
		t.Fatalf("retried read differs from no-fault read")
	}
}

func TestReadJSONRetryExhaustsOnPersistentFault(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm("pg/read-json", fault.Plan{Mode: fault.ModeError, Times: -1}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadJSONRetry(func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader("{}")), nil
	}, fault.RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want ErrInjected after exhaustion, got %v", err)
	}
	if fault.Hits("pg/read-json") != 3 {
		t.Fatalf("site hit %d times, want 3", fault.Hits("pg/read-json"))
	}
}

func TestWriteSitesInjectErrors(t *testing.T) {
	g := seedGraph()
	for _, site := range []string{"pg/write-json", "pg/write-node-csv", "pg/write-edge-csv"} {
		fault.Reset()
		if err := fault.Arm(site, fault.Plan{Mode: fault.ModeError}); err != nil {
			t.Fatal(err)
		}
		var err error
		switch site {
		case "pg/write-json":
			err = WriteJSON(io.Discard, g)
		case "pg/write-node-csv":
			err = g.WriteNodeCSV(io.Discard)
		case "pg/write-edge-csv":
			err = g.WriteEdgeCSV(io.Discard)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("site %s: want ErrInjected, got %v", site, err)
		}
	}
	fault.Reset()
}
