// Command benchpairs reads the result lines of alternating parent/change
// benchmark runs on stdin — "<side> <pair> <the JSON line bench/run.sh ends
// with>", side "base" or "head", as make bench-pairs writes them — and prints,
// for each end-to-end metric BENCHMARK.json declares, each side's median and
// quartiles, the pair win count and the verdict of the rule a performance
// claim is held to: a gain needs the change to win at least nine tenths of
// the pairs (ties count for neither side) and the medians to differ by more
// than the distance between the parent's quartiles; a regression is a median
// worse than the parent's by more than the metric's bound; a metric whose
// parent runs spread wider than its bound is unresolved, not unchanged.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	runs, err := readRuns(os.Stdin)
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, spec.EndToEnd, runs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpairs:", err)
	os.Exit(1)
}

// readRuns groups the result lines by pair label and side.
func readRuns(r io.Reader) (map[string]map[string]runResult, error) {
	runs := map[string]map[string]runResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		side, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		pair, doc, ok := strings.Cut(rest, " ")
		if !ok || (side != "base" && side != "head") {
			return nil, fmt.Errorf("line %q: want \"base|head <pair> <json>\"", sc.Text())
		}
		var res runResult
		if err := json.Unmarshal([]byte(doc), &res); err != nil {
			return nil, fmt.Errorf("%s run of pair %s: %w", side, pair, err)
		}
		if runs[pair] == nil {
			runs[pair] = map[string]runResult{}
		}
		runs[pair][side] = res
	}
	return runs, sc.Err()
}

// quantile interpolates linearly between the order statistics of sorted xs.
func quantile(xs []float64, p float64) float64 {
	at := p * float64(len(xs)-1)
	lo := int(at)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (at-float64(lo))*(xs[lo+1]-xs[lo])
}

func report(w io.Writer, metrics []metricSpec, runs map[string]map[string]runResult) {
	var pairs []string
	failed := map[string]int{}
	incorrect := map[string]int{}
	for pair, sides := range runs {
		if len(sides) == 2 {
			pairs = append(pairs, pair)
		}
		for side, res := range sides {
			failed[side] += res.Failed
			if !res.Correct {
				incorrect[side]++
			}
		}
	}
	sort.Strings(pairs)
	fmt.Fprintf(w, "%d complete pairs; failed operations base %d head %d; runs with a failed output check base %d head %d\n",
		len(pairs), failed["base"], failed["head"], incorrect["base"], incorrect["head"])
	if len(pairs) == 0 {
		return
	}
	if len(pairs) < 10 {
		fmt.Fprintln(w, "fewer than ten pairs: a claim needs at least ten, the verdicts below are indicative only")
	}
	fmt.Fprintf(w, "%-30s %-34s %-34s %8s %-12s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "head/base", "wins h/b/tie", "verdict")
	for _, m := range metrics {
		sign := 1.0 // positive delta = head better
		if m.Better == "higher" {
			sign = -1
		}
		var base, head []float64
		var winsHead, winsBase, ties int
		for _, pair := range pairs {
			b, h := runs[pair]["base"].Metrics[m.Name].Value, runs[pair]["head"].Metrics[m.Name].Value
			base, head = append(base, b), append(head, h)
			switch d := sign * (b - h); {
			case d > 0:
				winsHead++
			case d < 0:
				winsBase++
			default:
				ties++
			}
		}
		sort.Float64s(base)
		sort.Float64s(head)
		bq1, bmed, bq3 := quantile(base, .25), quantile(base, .5), quantile(base, .75)
		hq1, hmed, hq3 := quantile(head, .25), quantile(head, .5), quantile(head, .75)
		gain := sign * (bmed - hmed)
		verdict := "no worse"
		switch {
		case 10*winsHead >= 9*len(pairs) && gain > bq3-bq1:
			verdict = "GAIN"
		case -gain > m.Bound*bmed:
			verdict = "WORSE beyond the bound"
		case bq3-bq1 > m.Bound*bmed:
			verdict = "unresolved: base spread exceeds the bound"
		}
		fmt.Fprintf(w, "%-30s %-34s %-34s %8.3f %-12s %s\n", m.Name+" ("+m.Unit+")",
			fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", hmed, hq1, hq3),
			hmed/bmed, fmt.Sprintf("%d/%d/%d", winsHead, winsBase, ties), verdict)
	}
}
