package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRunTraceCounters drives the RunTrace recording surface with the event
// sequences the engine produces on its different evaluation paths and checks
// the aggregated counters.
func TestRunTraceCounters(t *testing.T) {
	type eval struct {
		rule                     int
		firings, derived, probes int64
		wall                     time.Duration
	}
	cases := []struct {
		name  string
		rules []string
		evals []eval
		want  []RuleStats
	}{
		{
			// One rule evaluated twice (round 0 + one delta round), as the
			// plain semi-naive path produces.
			name:  "semi-naive rounds accumulate",
			rules: []string{"tc"},
			evals: []eval{
				{rule: 0, firings: 10, derived: 10, probes: 40, wall: time.Millisecond},
				{rule: 0, firings: 4, derived: 0, probes: 12, wall: time.Millisecond},
			},
			want: []RuleStats{{Rule: 0, Label: "tc", Evals: 2, Firings: 14, Derived: 10, Probes: 52}},
		},
		{
			// The provenance fallback evaluates every rule sequentially; the
			// counters must not care which engine produced them.
			name:  "sequential provenance fallback",
			rules: []string{"own", "control"},
			evals: []eval{
				{rule: 0, firings: 7, derived: 7, probes: 7},
				{rule: 1, firings: 3, derived: 2, probes: 21},
				{rule: 1, firings: 1, derived: 0, probes: 9},
			},
			want: []RuleStats{
				{Rule: 0, Label: "own", Evals: 1, Firings: 7, Derived: 7, Probes: 7},
				{Rule: 1, Label: "control", Evals: 2, Firings: 4, Derived: 2, Probes: 30},
			},
		},
		{
			// Monotonic aggregates force the fully sequential engine: a rule
			// can fire often while deriving little (pruned contributors).
			name:  "monotonic aggregate firings exceed derivations",
			rules: []string{"msum"},
			evals: []eval{
				{rule: 0, firings: 100, derived: 5, probes: 100},
			},
			want: []RuleStats{{Rule: 0, Label: "msum", Evals: 1, Firings: 100, Derived: 5, Probes: 100}},
		},
		{
			// A declared rule that never fires still appears with zeros, so
			// traces always cover the whole program.
			name:  "unfired rule present",
			rules: []string{"a", "dead"},
			evals: []eval{{rule: 0, firings: 1, derived: 1, probes: 1}},
			want: []RuleStats{
				{Rule: 0, Label: "a", Evals: 1, Firings: 1, Derived: 1, Probes: 1},
				{Rule: 1, Label: "dead"},
			},
		},
		{
			// Out-of-range rule indices are dropped, not panicking: the
			// engine only reports declared rules.
			name:  "out of range eval ignored",
			rules: []string{"only"},
			evals: []eval{{rule: 5, firings: 9, derived: 9, probes: 9}},
			want:  []RuleStats{{Rule: 0, Label: "only"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewTrace().StartRun()
			for i, label := range tc.rules {
				rt.DeclareRule(i, i+1, label)
			}
			for _, ev := range tc.evals {
				rt.AddEval(ev.rule, ev.firings, ev.derived, ev.probes, ev.wall)
			}
			if len(rt.Rules) != len(tc.want) {
				t.Fatalf("got %d rules, want %d", len(rt.Rules), len(tc.want))
			}
			for i, want := range tc.want {
				got := rt.Rules[i]
				got.WallNanos = 0 // timing asserted separately
				want.Line = i + 1
				if got != want {
					t.Errorf("rule %d = %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

func TestRunTraceRoundsAndOutcome(t *testing.T) {
	rt := NewTrace().StartRun()
	rt.AddRound(0, 0, 12)
	rt.AddRound(0, 1, 4)
	rt.AddRound(1, 0, 0)
	rt.Finish("ok", 2, 16, 3*time.Millisecond)
	want := []RoundStats{{0, 0, 12}, {0, 1, 4}, {1, 0, 0}}
	if len(rt.Rounds) != len(want) {
		t.Fatalf("rounds = %+v", rt.Rounds)
	}
	for i := range want {
		if rt.Rounds[i] != want[i] {
			t.Errorf("round %d = %+v, want %+v", i, rt.Rounds[i], want[i])
		}
	}
	if rt.Outcome.Status != "ok" || rt.Outcome.Rounds != 2 || rt.Outcome.Derived != 16 {
		t.Errorf("outcome = %+v", rt.Outcome)
	}
	if rt.Outcome.DurationNanos != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("duration = %d", rt.Outcome.DurationNanos)
	}
}

// TestWriteJSONDeterministic: two traces recording the same counters with
// different wall times serialize byte-identically through WriteJSON — the
// property the engine's worker-count-independence test builds on — while
// WriteJSONTimings exposes the timing difference.
func TestWriteJSONDeterministic(t *testing.T) {
	build := func(wall time.Duration) *Trace {
		tr := NewTrace()
		rt := tr.StartRun()
		rt.DeclareRule(0, 3, "tc")
		rt.AddEval(0, 10, 8, 40, wall)
		rt.AddMerge(0, wall/2)
		rt.AddPrewarm(0, wall/4)
		rt.AddRound(0, 0, 8)
		rt.Finish("ok", 1, 8, wall*7)
		return tr
	}
	var a, b, at bytes.Buffer
	if err := build(time.Millisecond).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(time.Hour).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("deterministic traces differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if strings.Contains(a.String(), "wall_ns") || strings.Contains(a.String(), "merge_ns") || strings.Contains(a.String(), "prewarm_ns") || strings.Contains(a.String(), "duration_ns") {
		t.Fatalf("deterministic trace leaks timing fields:\n%s", a.String())
	}
	if err := build(time.Millisecond).WriteJSONTimings(&at); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(at.String(), "wall_ns") || !strings.Contains(at.String(), "merge_ns") || !strings.Contains(at.String(), "prewarm_ns") || !strings.Contains(at.String(), "duration_ns") {
		t.Fatalf("timing trace misses timing fields:\n%s", at.String())
	}
	// Stripping must not mutate the underlying trace.
	tr := build(time.Millisecond)
	var first bytes.Buffer
	if err := tr.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	if rt := tr.Runs()[0]; rt.Rules[0].WallNanos == 0 || rt.Rules[0].MergeNanos == 0 || rt.Rules[0].PrewarmNanos == 0 || rt.Outcome.DurationNanos == 0 {
		t.Fatal("WriteJSON zeroed the recorded timings")
	}
}

func TestTraceMultipleRuns(t *testing.T) {
	tr := NewTrace()
	r1 := tr.StartRun()
	r1.DeclareRule(0, 1, "first")
	r2 := tr.StartRun()
	r2.DeclareRule(0, 1, "second")
	runs := tr.Runs()
	if len(runs) != 2 || runs[0].Rules[0].Label != "first" || runs[1].Rules[0].Label != "second" {
		t.Fatalf("runs = %+v", runs)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Runs) != 2 {
		t.Fatalf("serialized %d runs, want 2", len(decoded.Runs))
	}
}
