package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0: 1, .25: 2, .5: 3, .75: 4, 1: 5} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := quantile([]float64{10, 20}, .5); got != 15 {
		t.Errorf("median of two = %v", got)
	}
	if got := quantile([]float64{7}, .75); got != 7 {
		t.Errorf("quartile of one = %v", got)
	}
}

// TestReportVerdicts feeds ten pairs in which op_ms drops tenfold (a gain),
// aux_ms rises by half (beyond its bound), setup_s is flat but the base runs
// spread wider than the bound, and rss is flat and tight; pair 11 lacks its
// head run and must not count.
func TestReportVerdicts(t *testing.T) {
	var in strings.Builder
	line := func(side string, pair int, op, aux, setup, rss float64) {
		fmt.Fprintf(&in, `%s %d {"correct":true,"attempted":5,"failed":0,"metrics":{"op_ms":{"value":%g,"unit":"ms"},"aux_ms":{"value":%g,"unit":"ms"},"setup_s":{"value":%g,"unit":"s"},"rss":{"value":%g,"unit":"MB"}}}`+"\n",
			side, pair, op, aux, setup, rss)
	}
	for i := 1; i <= 10; i++ {
		f := float64(i)
		line("base", i, 20+f/10, 10, 1+f/5, 100)
		line("head", i, 2+f/10, 15, 1+f/5, 100)
	}
	line("base", 11, 1, 1, 1, 1)
	runs, err := readRuns(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, []metricSpec{
		{"op_ms", "ms", "lower", .25}, {"aux_ms", "ms", "lower", .25},
		{"setup_s", "s", "lower", .25}, {"rss", "MB", "lower", .25},
	}, runs)
	got := out.String()
	if !strings.HasPrefix(got, "10 complete pairs") {
		t.Errorf("pair count:\n%s", got)
	}
	for metric, want := range map[string]string{
		"op_ms": "10/0/0 GAIN", "aux_ms": "0/10/0 WORSE", "setup_s": "0/0/10 unresolved:", "rss": "0/0/10 no",
	} {
		found := false
		for _, l := range strings.Split(got, "\n") {
			if f := strings.Fields(l); len(f) > 10 && f[0] == metric {
				found = f[9]+" "+f[10] == want
			}
		}
		if !found {
			t.Errorf("%s: want wins and verdict %q in:\n%s", metric, want, got)
		}
	}
	if _, err := readRuns(strings.NewReader("parent 1 {}\n")); err == nil {
		t.Error("a line with an unknown side must be refused")
	}
}
