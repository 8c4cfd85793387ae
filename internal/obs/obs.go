// Package obs is the observability layer of the reasoning pipeline: per-rule
// evaluation counters, a deterministic JSON run-trace writer, and process-wide
// expvar counters with an optional debug HTTP endpoint (pprof + /debug/vars).
//
// The engine records into a Trace handed to it via vadalog.Options.Trace. One
// Trace can span several engine runs (e.g. the component sequence of a
// kgreason materialization); each run appends a RunTrace in start order.
//
// Determinism. Everything the engine records except wall-clock time is a pure
// function of the program, the input database and the evaluation strategy —
// and the strategy is worker-count-independent by construction (the shard
// plan depends only on window sizes, the merge consumes shards in index
// order; see internal/vadalog/parallel.go). WriteJSON therefore omits the
// timing fields, making the trace of a fixed program byte-identical across
// worker counts; WriteJSONTimings includes them for profiling.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// RuleStats aggregates the evaluation counters of one rule across a run.
type RuleStats struct {
	// Rule is the rule's index in the program; Line and Label (the head
	// predicates) identify it in source terms.
	Rule  int    `json:"rule"`
	Line  int    `json:"line,omitempty"`
	Label string `json:"label,omitempty"`
	// Evals counts rule evaluations (one per full evaluation, one per
	// non-empty delta window of a semi-naive round),
	// Firings complete body matches, Derived newly inserted facts, and
	// Probes candidate facts visited at join steps.
	Evals   int64 `json:"evals"`
	Firings int64 `json:"firings"`
	Derived int64 `json:"derived"`
	Probes  int64 `json:"probes"`
	// WallNanos is cumulative evaluation wall time; MergeNanos is the part
	// of it a sharded evaluation spends in its serial merge barrier, and
	// PrewarmNanos the part it spends building the indexes its steps probe
	// before the fan-out. They are the non-deterministic fields; WriteJSON
	// omits them.
	WallNanos    int64 `json:"wall_ns,omitempty"`
	MergeNanos   int64 `json:"merge_ns,omitempty"`
	PrewarmNanos int64 `json:"prewarm_ns,omitempty"`
}

// RoundStats records the delta size of one fixpoint round.
type RoundStats struct {
	Stratum int `json:"stratum"`
	Round   int `json:"round"`
	// Delta is the number of facts inserted during the round.
	Delta int `json:"delta"`
}

// Outcome summarizes how a run ended.
type Outcome struct {
	// Status is "ok", "canceled", "timeout" or "error".
	Status  string `json:"status"`
	Rounds  int    `json:"rounds"`
	Derived int    `json:"derived"`
	// DurationNanos is wall time; WriteJSON omits it.
	DurationNanos int64 `json:"duration_ns,omitempty"`
}

// RunTrace is the trace of one engine run. The engine records from its
// coordinating goroutine only (shard counters are summed after the merge
// barrier), so the methods need no locking.
type RunTrace struct {
	Rules   []RuleStats  `json:"rules"`
	Rounds  []RoundStats `json:"rounds"`
	Outcome Outcome      `json:"outcome"`
}

// DeclareRule registers a rule before evaluation so every rule appears in the
// trace even when it never fires. Rules must be declared in index order.
func (rt *RunTrace) DeclareRule(idx, line int, label string) {
	rt.Rules = append(rt.Rules, RuleStats{Rule: idx, Line: line, Label: label})
}

// AddEval folds the counters of one rule evaluation into the rule's stats.
func (rt *RunTrace) AddEval(rule int, firings, derived, probes int64, wall time.Duration) {
	if rule < 0 || rule >= len(rt.Rules) {
		return
	}
	rs := &rt.Rules[rule]
	rs.Evals++
	rs.Firings += firings
	rs.Derived += derived
	rs.Probes += probes
	rs.WallNanos += wall.Nanoseconds()
}

// AddMerge adds the wall time of one sharded evaluation's merge barrier to
// the rule's stats.
func (rt *RunTrace) AddMerge(rule int, wall time.Duration) {
	if rule < 0 || rule >= len(rt.Rules) {
		return
	}
	rt.Rules[rule].MergeNanos += wall.Nanoseconds()
}

// AddPrewarm adds the wall time of one sharded evaluation's index prewarm
// to the rule's stats.
func (rt *RunTrace) AddPrewarm(rule int, wall time.Duration) {
	if rule < 0 || rule >= len(rt.Rules) {
		return
	}
	rt.Rules[rule].PrewarmNanos += wall.Nanoseconds()
}

// AddRound records the delta size of one fixpoint round.
func (rt *RunTrace) AddRound(stratum, round, delta int) {
	rt.Rounds = append(rt.Rounds, RoundStats{Stratum: stratum, Round: round, Delta: delta})
}

// Finish records the run outcome.
func (rt *RunTrace) Finish(status string, rounds, derived int, wall time.Duration) {
	rt.Outcome = Outcome{Status: status, Rounds: rounds, Derived: derived, DurationNanos: wall.Nanoseconds()}
}

// Trace collects the RunTraces of one or more engine runs. StartRun is
// safe for concurrent use; each returned RunTrace belongs to one engine.
type Trace struct {
	mu   sync.Mutex
	runs []*RunTrace
}

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return &Trace{} }

// StartRun appends and returns a fresh RunTrace.
func (t *Trace) StartRun() *RunTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	rt := &RunTrace{}
	t.runs = append(t.runs, rt)
	return rt
}

// Runs returns the recorded runs in start order.
func (t *Trace) Runs() []*RunTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*RunTrace(nil), t.runs...)
}

// traceJSON is the serialized shape of a Trace.
type traceJSON struct {
	Runs []*RunTrace `json:"runs"`
}

// WriteJSON writes the deterministic trace: all counters, no wall-clock
// fields. For a fixed program and database the output is byte-identical
// across worker counts.
func (t *Trace) WriteJSON(w io.Writer) error { return t.write(w, false) }

// WriteJSONTimings writes the trace including per-rule wall, merge and
// prewarm time and run duration. Timings vary run to run; use WriteJSON when comparing traces.
func (t *Trace) WriteJSONTimings(w io.Writer) error { return t.write(w, true) }

func (t *Trace) write(w io.Writer, timings bool) error {
	runs := t.Runs()
	if !timings {
		// Strip the non-deterministic fields on copies; omitempty drops the
		// zeroed values from the encoding.
		stripped := make([]*RunTrace, len(runs))
		for i, rt := range runs {
			c := &RunTrace{
				Rules:   append([]RuleStats(nil), rt.Rules...),
				Rounds:  rt.Rounds,
				Outcome: rt.Outcome,
			}
			for j := range c.Rules {
				c.Rules[j].WallNanos, c.Rules[j].MergeNanos, c.Rules[j].PrewarmNanos = 0, 0, 0
			}
			c.Outcome.DurationNanos = 0
			stripped[i] = c
		}
		runs = stripped
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceJSON{Runs: runs})
}
