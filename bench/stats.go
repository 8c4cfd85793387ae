package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) by nearest rank; xs need
// not be sorted and is left untouched. Empty input yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples; the
// epsilon keeps 0.9*100 from rounding up to rank 91.
func rankOf(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// median is the middle value, the mean of the two middle values when the
// count is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tail is what the traced pass's *_tail_ms metrics report: the q-quantile
// while at least beyond samples lie beyond it, and the slowest sample
// otherwise. The serve workloads ask for ten beyond a p95 or a p90 (so a p95
// is refused below 200 samples) and are sized to sit clear of the threshold,
// so a run does not flip between the two definitions.
func tail(xs []float64, q float64, beyond int) float64 {
	if len(xs)-rankOf(len(xs), q) >= beyond {
		return percentile(xs, q)
	}
	return maxOf(xs)
}

// The end-to-end timings are quiet-host estimates. The box is a few cores of
// a shared host, and what its neighbours do shows as bursts and stretches in
// which the same operation takes 1.2-1.5x as long; over 25 s windows the
// median of a window's samples then spreads two to five times as widely as
// their fastest few (README, "Noise"). A regression moves the fast samples
// as much as the slow ones, a neighbour only the slow ones, so the fast ones
// are what a bound can be held against; the traced pass keeps reporting
// medians and tails, disturbances included.

// quiet is the estimate for samples of one operation: their fifth
// percentile by nearest rank, which is the fastest of up to twenty
// repetitions, the second fastest of 21 to 40, and among hundreds of
// requests of one kind the cost of one that neither the host nor a costly
// key slowed.
func quiet(xs []float64) float64 { return percentile(xs, 0.05) }

// quietPool is the estimate for a fixed pool of unlike operations visited in
// turn, xs[i] being a visit to operation i%pool: quiet() of each operation's
// visits, and of those the median — every operation at its undisturbed time,
// then the typical one among them.
func quietPool(xs []float64, pool int) float64 {
	visits := make([][]float64, pool)
	for i, x := range xs {
		visits[i%pool] = append(visits[i%pool], x)
	}
	var best []float64
	for _, v := range visits {
		if len(v) > 0 {
			best = append(best, quiet(v))
		}
	}
	return median(best)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// iqrShare is the distance between the first and third quartile as a share
// of the median — the run-to-run spread the comparer and the driver hold
// against a metric's bound. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}
