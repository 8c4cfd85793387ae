// Command bench is the repository's end-to-end benchmark: six workloads
// from ingest to recovery, each reporting the same end-to-end metrics from
// an untraced pass and per-layer metrics from a traced one. README.md in
// this directory has the tables; BENCHMARK.json at the repository root is
// the driver's view of the same contract.
//
//	bench --workload serve-read --seed 7 --seconds 10 --trace 0   one pass, one workload
//	bench                                                          all six, both passes, a child process each
//	bench -compare old.json new.json                               judge two summaries
//	bench -selfcheck                                               two full sets, compared
//	bench -smoke                                                   every workload at ~1% size, both passes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 42, "workload seed: attribute values, query keys, churn order, mutation targets")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured region")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		dir      = flag.String("dir", envOr("BENCH_DIR", "."), "the benchmark's directory; results go to <dir>/results")
		compare  = flag.Bool("compare", false, "compare two summary files: -compare old.json new.json")
		self     = flag.Bool("selfcheck", false, "run two full sets and compare them")
		smoke    = flag.Bool("smoke", false, "run every workload at ~1% size, both passes")
		out      = flag.String("o", "", "with no -workload: write the summary here (default <dir>/results/summary.json)")
		spec     = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the spec in spec.go defines it, and exit")
		runs     = flag.Int("runs", 1, "with no -workload: untraced runs per workload, seeds seed..seed+runs-1; medians and spreads are reported")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON()) //nolint:errcheck // stdout
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two summary files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, 1, *dir)
	case *smoke:
		err = runSmoke(*seed, *dir)
	case *self:
		err = selfcheck(*seed, *seconds, *runs, *dir)
	default:
		path := *out
		if path == "" {
			path = filepath.Join(*dir, "results", "summary.json")
		}
		_, err = runAll(*seed, *seconds, *runs, *dir, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// runOne is the driver's entry: one workload, one pass, in this process. The
// last line on standard output is the pass's JSON summary; a failed output
// check leaves "correct": false in it and the exit code at 0, as the
// contract asks, while a workload that could not run at all exits non-zero.
func runOne(name string, seed int64, seconds float64, traced bool, sizeScale float64, dir string) error {
	def := findWorkload(name)
	if def == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	workDir, err := os.MkdirTemp(mkResults(dir), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	r := &run{def: def, sz: def.Sizes.scaled(sizeScale), seed: seed, seconds: seconds, traced: traced,
		workDir: workDir, metrics: map[string]metricValue{}}
	if traced {
		r.tr = newTracer()
	}
	if err := def.run(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	line, err := r.finish(dir)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

func mkResults(dir string) string {
	res := filepath.Join(dir, "results")
	os.MkdirAll(res, 0o755) //nolint:errcheck // MkdirTemp reports it
	return res
}

// summary is one full set: every workload, both passes. It is what
// -compare reads and what baseline.json holds.
type summary struct {
	Env       envStamp              `json:"env"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	WALSync   string                `json:"wal_sync"`
	Workloads map[string]passResult `json:"workloads"`
	Claim     *string               `json:"claim"`
}

type passResult struct {
	Sizes     sizes                  `json:"sizes"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// Unavailable is the traced pass's list of metrics it could not measure;
	// their 0 in PerLayer is not a measurement.
	Unavailable []unavailableMetric `json:"unavailable,omitempty"`
}

// runAll runs every workload's untraced pass (runs times, a seed each) and
// then its traced pass, each in a child process of its own, so that
// peak_rss_mb is the workload's and not its predecessors'. It writes the
// summary and fails if any output check did.
func runAll(seed int64, seconds float64, runs int, dir, path string) (*summary, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	child := func(w string, seed int64, traced int) (*resultFile, error) {
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(traced), "-dir", dir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (seed %d, trace %d): %w", w, seed, traced, err)
		}
		suffix := ""
		if traced == 1 {
			suffix = "-trace"
		}
		var rf resultFile
		b, err := os.ReadFile(filepath.Join(dir, "results", w+suffix+".json"))
		if err == nil {
			err = json.Unmarshal(b, &rf)
		}
		return &rf, err
	}
	sum := &summary{Env: stampEnv(dir), Seed: seed, Seconds: seconds, WALSync: findWorkload("serve-write").Sizes.WALSync, Workloads: map[string]passResult{}}
	allCorrect := true
	for _, w := range workloads {
		pr := passResult{Sizes: w.Sizes, Correct: true, EndToEnd: map[string]metricValue{}}
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			rf, err := child(w.Name, seed+int64(i), 0)
			if err != nil {
				return nil, err
			}
			pr.Correct = pr.Correct && rf.Correct
			pr.Attempted += rf.Attempted
			pr.Failed += rf.Failed
			for name, m := range rf.Metrics {
				values[name] = append(values[name], m.Value)
				pr.EndToEnd[name] = m
			}
		}
		if runs > 1 {
			for name, xs := range values {
				pr.EndToEnd[name] = metricValue{Value: median(xs), Unit: pr.EndToEnd[name].Unit,
					Min: minOf(xs), Max: maxOf(xs), Runs: runs, Spread: iqrShare(xs)}
			}
		}
		rf, err := child(w.Name, seed, 1)
		if err != nil {
			return nil, err
		}
		pr.Correct = pr.Correct && rf.Correct
		pr.Attempted += rf.Attempted
		pr.Failed += rf.Failed
		pr.PerLayer, pr.Unavailable = rf.Metrics, rf.Unavailable
		allCorrect = allCorrect && pr.Correct
		sum.Workloads[w.Name] = pr
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("summary written to %s\n", path)
	if !allCorrect {
		return sum, fmt.Errorf("an output check failed; see the CHECK FAILED lines above")
	}
	return sum, nil
}

// selfcheck runs two full sets of the same commit and holds the second
// against the first under the benchmark's own bounds.
func selfcheck(seed int64, seconds float64, runs int, dir string) error {
	var paths []string
	for _, name := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		p := filepath.Join(mkResults(dir), name)
		if _, err := runAll(seed, seconds, runs, dir, p); err != nil {
			return err
		}
		paths = append(paths, p)
	}
	return compareFiles(paths[0], paths[1])
}

// runSmoke drives every workload at about 1% size through both passes, in
// this process: the harness's own test, not a measurement.
func runSmoke(seed int64, dir string) error {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if err := runOne(w.Name, seed, 0.15, traced, 0.01, dir); err != nil {
				return err
			}
		}
	}
	return nil
}
