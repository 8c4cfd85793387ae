package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// run is one pass of one workload: either the untraced pass, which yields
// the end-to-end metrics, or the traced pass, which yields the per-layer
// ones. A workload fills it through set/sample/op/check and never prints.
type run struct {
	def     *workloadDef
	sz      sizes
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer // nil in the untraced pass
	workDir string

	metrics   map[string]metricValue
	attempted int
	failed    int
	checks    []checkResult
	// unavailable lists the metrics this pass should have measured and could
	// not, each with the reason. The driver's line needs a number for every
	// metric, so they read 0 there; this list is what tells such a 0 from the
	// 0 of a layer the workload never enters.
	unavailable []unavailableMetric
}

type unavailableMetric struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricValue is a reported number; timings carry the sample count and the
// extremes beside the median.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// Runs and Spread appear in summaries made with -runs > 1: Value is then
	// the median over that many runs (one seed each) and Spread the
	// distance between their quartiles as a share of it.
	Runs   int     `json:"runs,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *run) set(name string, v float64) {
	def := findMetric(name)
	if def == nil {
		panic("bench: metric not in spec: " + name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: def.Unit}
}

// sample reports agg(xs) under name and keeps n, min and max beside it. An
// empty sample has no aggregate: the metric is flagged unavailable.
func (r *run) sample(name string, xs []float64, agg func([]float64) float64) {
	if len(xs) == 0 {
		r.refuse(name, "no samples")
		return
	}
	r.set(name, agg(xs))
	m := r.metrics[name]
	m.N, m.Min, m.Max = len(xs), minOf(xs), maxOf(xs)
	r.metrics[name] = m
}

// refuse flags a metric the pass could not measure.
func (r *run) refuse(name, format string, args ...any) {
	if findMetric(name) == nil {
		panic("bench: metric not in spec: " + name)
	}
	r.unavailable = append(r.unavailable, unavailableMetric{name, fmt.Sprintf(format, args...)})
}

// overhead reports bench.trace_overhead_pct: how much longer the primary
// operation took inside a span than without one, both measured in the traced
// pass. It needs samples on both sides.
func (r *run) overhead(spanned, plain []float64) {
	if len(spanned) == 0 || len(plain) == 0 {
		r.refuse("bench.trace_overhead_pct", "%d spanned and %d plain samples", len(spanned), len(plain))
		return
	}
	r.set("bench.trace_overhead_pct", 100*(median(spanned)-median(plain))/median(plain))
}

// op counts one attempted operation; a failed or refused one counts
// against failed.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records an output check. A failing check fails the run and counts
// as a failed operation.
func (r *run) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
	r.op(ok)
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// setup runs the workload's set-up SetupReps times, tearing each product
// down before building the next, and reports the median as setup_s. The
// last product is the one the measured region uses; its teardown is
// returned.
func (r *run) setup(build func() (teardown func(), err error)) (func(), error) {
	var times []float64
	var teardown func()
	for i := 0; i < r.sz.SetupReps; i++ {
		if teardown != nil {
			teardown()
		}
		// Each set-up starts from a collected heap: the previous one's
		// product is garbage by now, and whether a collection happens to
		// catch it would otherwise decide the process's peak.
		runtime.GC()
		start := time.Now()
		td, err := build()
		if err != nil {
			return nil, err
		}
		times = append(times, secs(time.Since(start)))
		teardown = td
	}
	if !r.traced {
		r.sample("setup_s", times, median)
	}
	return teardown, nil
}

// tail is the workload's aggregate for the traced pass's *_tail_ms metrics.
func (r *run) tail(xs []float64) float64 { return tail(xs, r.def.TailQ, r.def.TailBeyond) }

// budget is the measured region's length.
func (r *run) budget() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// resources reports the two memory metrics every workload shares: the
// process's resident high-water mark, and the heap that is still live
// after a collection (plus any mapped snapshot) per input edge. The caller
// keeps the workload's product alive across the call.
func (r *run) resources(edges int, mappedBytes int64) {
	if r.traced {
		return
	}
	r.set("resident_b_per_edge", (float64(heapAfterGC())+float64(mappedBytes))/float64(edges))
	r.set("peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where it is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// envStamp says what produced a result file.
type envStamp struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	RAMMB      int    `json:"ram_mb"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func stampEnv(benchDir string) envStamp {
	e := envStamp{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/meminfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "MemTotal:"); ok {
				kb, _ := strconv.Atoi(strings.Fields(rest)[0])
				e.RAMMB = kb / 1024
			}
		}
		f.Close()
	}
	// The driver's checkouts are not git repositories; only ask git where
	// there is one.
	root := filepath.Dir(benchDir)
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// resultFile is what bench/results/<workload>[-trace].json holds.
type resultFile struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Traced    bool                   `json:"traced"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Env       envStamp               `json:"env"`
	Sizes     sizes                  `json:"sizes"`
	Op        string                 `json:"op"`
	Work      string                 `json:"work"`
	Aux       string                 `json:"aux"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Checks    []checkResult          `json:"checks"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Unavailable names the metrics whose 0 means "could not be measured in
	// this pass", not "the workload never enters the layer".
	Unavailable []unavailableMetric `json:"unavailable,omitempty"`
	Claim       *string             `json:"claim"`
}

// finish fills the pass's metric list — every end-to-end metric must have
// been set; a per-layer metric the workload never touched is 0 — prints the
// metrics by name, writes the result and trace files, and returns the
// driver's one-line summary.
func (r *run) finish(benchDir string) (string, error) {
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	for _, d := range list {
		if _, ok := r.metrics[d.Name]; ok {
			continue
		}
		if !r.traced {
			return "", fmt.Errorf("workload %s did not report %s", r.def.Name, d.Name)
		}
		r.metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("workload %s: %s is %v, not a number to report", r.def.Name, n, m.Value)
		}
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-22s %-34s %14.4f %s", r.def.Name, n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  (n=%d min=%.4f max=%.4f)", m.N, m.Min, m.Max)
		}
		fmt.Println(line)
	}
	for _, u := range r.unavailable {
		fmt.Printf("%-22s UNAVAILABLE %s: %s\n", r.def.Name, u.Name, u.Why)
	}
	for _, c := range r.checks {
		if !c.OK {
			fmt.Printf("%-22s CHECK FAILED %s: %s\n", r.def.Name, c.Name, c.Detail)
		}
	}

	resDir := filepath.Join(benchDir, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return "", err
	}
	suffix := ""
	if r.traced {
		suffix = "-trace"
		if err := r.tr.writeFile(filepath.Join(resDir, "trace-"+r.def.Name+".json")); err != nil {
			return "", err
		}
	}
	rf := resultFile{
		Workload: r.def.Name, Why: r.def.Why, Traced: r.traced, Seed: r.seed, Seconds: r.seconds,
		Env: stampEnv(benchDir), Sizes: r.sz, Op: r.def.Op, Work: r.def.Work, Aux: r.def.Aux,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Checks: r.checks, Metrics: r.metrics, Unavailable: r.unavailable,
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(resDir, r.def.Name+suffix+".json"), append(b, '\n'), 0o644); err != nil {
		return "", err
	}

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]mv{}}
	for _, d := range list {
		line.Metrics[d.Name] = mv{r.metrics[d.Name].Value, d.Unit}
	}
	out, err := json.Marshal(line)
	return string(out), err
}
