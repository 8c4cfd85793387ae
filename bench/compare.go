package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// verdict is the comparer's judgment of one (metric, workload) pair.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
	// missing is a pair one of the two summaries does not hold. It fails the
	// comparison as "worse" does: a summary that dropped a workload or a
	// metric has not shown it held.
	missing verdict = "missing"
)

// judge applies a metric's direction and bound. change is the new median's
// move in the worsening direction as a share of the old one; a move beyond
// the bound either way is a verdict, anything inside it is "same". spread is
// the run-to-run spread of the metric as a share of its median (0 when the
// summaries hold single runs; see -runs): where it exceeds the bound, a move the bound
// would have judged cannot be told from noise and is "unresolved".
func judge(def metricDef, old, new, spread float64) verdict {
	if old == 0 {
		if new == 0 {
			return same
		}
		return unresolved
	}
	change := (new - old) / math.Abs(old)
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case spread > def.Bound:
		return unresolved
	case change > def.Bound:
		return worse
	case change < -def.Bound:
		return better
	default:
		return same
	}
}

func readSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per (end-to-end metric, workload) with both
// medians, the ratio with its base, and the verdict, and fails on any
// "worse" or "missing" or on more failed operations than before.
func compareFiles(oldPath, newPath string) error {
	old, err := readSummary(oldPath)
	if err != nil {
		return err
	}
	cur, err := readSummary(newPath)
	if err != nil {
		return err
	}
	rows, bad := compareSummaries(old, cur)
	fmt.Printf("%-22s %-22s %14s %14s %8s %9s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-22s %-22s %14.4f %14.4f %8.3f %8.0f%%  %s\n", r.Workload, r.Metric, r.Old, r.New, r.Ratio, 100*r.Bound, r.Verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs are worse than %s allows, or missing", bad, oldPath)
	}
	return nil
}

type compareRow struct {
	Workload, Metric string
	Old, New, Ratio  float64
	Bound            float64
	Verdict          verdict
}

func compareSummaries(old, cur *summary) ([]compareRow, int) {
	var rows []compareRow
	bad := 0
	names := make([]string, 0, len(old.Workloads))
	for n := range old.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, w := range names {
		o := old.Workloads[w]
		c, have := cur.Workloads[w]
		for _, def := range endToEnd {
			om, inOld := o.EndToEnd[def.Name]
			cm, inCur := c.EndToEnd[def.Name]
			ov, cv := om.Value, cm.Value
			v := missing
			if inOld && inCur {
				v = judge(def, ov, cv, math.Max(om.Spread, cm.Spread))
			}
			ratio := math.NaN()
			if ov != 0 && inCur {
				ratio = cv / ov
			}
			rows = append(rows, compareRow{w, def.Name, ov, cv, ratio, def.Bound, v})
			if v == worse || v == missing {
				bad++
			}
		}
		// failed_ratio may not rise at all.
		of, cf := failedRatio(o), failedRatio(c)
		v := same
		switch {
		case !have:
			v = missing
			bad++
		case cf > of:
			v = worse
			bad++
		case cf < of:
			v = better
		}
		rows = append(rows, compareRow{w, "failed_ratio", of, cf, math.NaN(), 0, v})
	}
	return rows, bad
}

func failedRatio(p passResult) float64 {
	if p.Attempted == 0 {
		return 0
	}
	return float64(p.Failed) / float64(p.Attempted)
}
