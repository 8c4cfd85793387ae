package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/pg"
)

// The crash-injection harness: a real kgserve-shaped child process is
// SIGKILLed mid-batch over a real TCP listener, and the recovered state must
// be bit-identical (through the snapfile encoder) to replaying exactly the
// batches the write-ahead log holds — which must bracket what the client saw
// acknowledged: acked ≤ recovered ≤ sent.
//
// The child is this very test binary re-executed with KGSERVE_CRASH_CHILD=1;
// TestMain diverts into runCrashChild before any test runs.

const crashChildEnv = "KGSERVE_CRASH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		runCrashChild()
		return
	}
	os.Exit(m.Run())
}

// runCrashChild serves the configured graph with a WAL over a real listener
// and prints the address; it never exits on its own — the parent SIGKILLs it.
func runCrashChild() {
	srv, err := New(Config{
		Source:  os.Getenv("KGSERVE_CRASH_GRAPH"),
		WALDir:  os.Getenv("KGSERVE_CRASH_WAL"),
		WALSync: os.Getenv("KGSERVE_CRASH_SYNC"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
}

// crashOps generates the k-th mutation batch of a run as a canonical wire
// JSON array — the single source of truth both for what the parent POSTs and
// for what the differential reference replays. Every batch is valid against
// any state the earlier ones produce.
func crashOps(rng *rand.Rand, run, k int) string {
	tag := fmt.Sprintf("r%db%d", run, k)
	switch rng.Intn(3) {
	case 0: // a node and an edge into the base
		return fmt.Sprintf(`[{"op":"add_node","name":"w","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"%s"}}},
			{"op":"add_edge","from":{"name":"w"},"to":{"id":1},"label":"OWNS","props":{"percentage":{"kind":"float","float":0.3}}}]`, tag)
	case 1: // overwrite a base-node property
		return fmt.Sprintf(`[{"op":"set_node_prop","node":{"id":1},"key":"note","value":{"kind":"string","str":"%s"}}]`, tag)
	default: // a bare node
		return fmt.Sprintf(`[{"op":"add_node","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"%s"}}}]`, tag)
	}
}

// TestCrashRecoveryDifferential runs 25 seeded crash/recover cycles across
// the three fsync policies. Per run: N serial acknowledged batches, one more
// launched concurrently with a SIGKILL, then an in-process restart over the
// orphaned WAL. Invariants: the log replays acked..acked+1 batches, the
// recovered bytes equal a crash-free replay of exactly that prefix, and the
// next sequence number continues where the log ends.
func TestCrashRecoveryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness spawns real processes; skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	policies := []string{"always", "interval:5ms", "off"}

	for run := 0; run < 25; run++ {
		run := run
		t.Run(fmt.Sprintf("seed%02d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + run)))
			sync := policies[run%len(policies)]
			dir := t.TempDir()
			graph := filepath.Join(dir, "kg.json")
			walDir := filepath.Join(dir, "wal")
			f, err := os.Create(graph)
			if err != nil {
				t.Fatal(err)
			}
			if err := pg.WriteJSON(f, mutateBase(t)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Launch the child and wait for its listener address.
			cmd := exec.Command(exe, "-test.run=^$")
			cmd.Env = append(os.Environ(),
				crashChildEnv+"=1",
				"KGSERVE_CRASH_GRAPH="+graph,
				"KGSERVE_CRASH_WAL="+walDir,
				"KGSERVE_CRASH_SYNC="+sync,
			)
			var childErr bytes.Buffer
			cmd.Stderr = &childErr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cmd.Process.Kill()
				cmd.Wait()
			}()
			var addr string
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
					addr = a
					break
				}
			}
			if addr == "" {
				t.Fatalf("child never published an address (stderr: %s)", childErr.String())
			}
			go io.Copy(io.Discard, stdout)

			client := &http.Client{Timeout: 5 * time.Second}
			defer client.CloseIdleConnections()
			post := func(opsJSON string) (int, error) {
				resp, err := client.Post("http://"+addr+"/mutate", "application/json",
					strings.NewReader(`{"ops":`+opsJSON+`}`))
				if err != nil {
					return 0, err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp.StatusCode, nil
			}

			// Serial acknowledged prefix.
			nSerial := 1 + rng.Intn(4)
			batches := make([]string, 0, nSerial+1)
			for k := 0; k < nSerial; k++ {
				ops := crashOps(rng, run, k)
				batches = append(batches, ops)
				code, err := post(ops)
				if err != nil || code != http.StatusOK {
					t.Fatalf("serial batch %d: code %d err %v (child stderr: %s)",
						k, code, err, childErr.String())
				}
			}

			// The mid-batch kill: one more request races a SIGKILL. Whether
			// it lands is the point — the recovery invariant brackets it.
			final := crashOps(rng, run, nSerial)
			batches = append(batches, final)
			ackc := make(chan bool, 1)
			go func() {
				code, err := post(final)
				ackc <- err == nil && code == http.StatusOK
			}()
			time.Sleep(time.Duration(rng.Intn(2_000_000))) // 0–2ms into the batch
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()
			acked := nSerial
			if <-ackc {
				acked++
			}

			// In-process restart over the orphaned log (synchronous replay).
			s2, err := New(Config{Source: graph, WALDir: walDir, WALSync: sync})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer shutdownServer(t, s2)
			recovered := int(s2.WALStats().NextSeq) - 1
			if recovered < acked || recovered > nSerial+1 {
				t.Fatalf("recovered %d batches, want within [%d, %d]", recovered, acked, nSerial+1)
			}

			// Differential: a crash-free server fed exactly the recovered
			// prefix must encode to the same bytes.
			ref, err := New(Config{Source: graph})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownServer(t, ref)
			for k := 0; k < recovered; k++ {
				if w := postJSON(t, ref.Handler(), "/mutate", `{"ops":`+batches[k]+`}`); w.Code != http.StatusOK {
					t.Fatalf("reference batch %d: %d %s", k, w.Code, w.Body.String())
				}
			}
			if got, want := encodeView(t, s2), encodeView(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("recovered state diverges from replaying the %d-batch prefix (policy %s)",
					recovered, sync)
			}

			// Sequence numbers continue exactly after the recovered prefix.
			if info := mustMutate(t, s2, walBatch(fmt.Sprintf("tail%d", run))); info.Seq != uint64(recovered+1) {
				t.Fatalf("post-recovery seq = %d, want %d", info.Seq, recovered+1)
			}
		})
	}
}
