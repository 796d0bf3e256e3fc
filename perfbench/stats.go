package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 from 500 samples rests on five values and is not
// reported.
const minTail = 10

// percentileLadder lists the percentiles a summary may report above the
// median, in increasing order.
var percentileLadder = []float64{90, 95, 99, 99.9}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by linear
// interpolation between closest ranks. It returns NaN for no values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// highestPercentile returns the highest percentile of percentileLadder
// that has at least minTail of n samples beyond it, or 0 when even p90
// is unsupported.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// supports reports whether n samples leave at least minTail beyond
// the p-th
// percentile. The slack absorbs rounding in (100-p)/100.
func supports(n int, p float64) bool { return float64(n)*(100-p)/100 >= minTail-1e-9 }

// summary describes one sample of timings or sizes.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

// summarize sorts a copy of values and reports its median and quartiles.
func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// percentileOf returns the p-th percentile of values, or NaN when fewer
// than minTail samples lie beyond it.
func percentileOf(values []float64, p float64) float64 {
	if !supports(len(values), p) {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, p/100)
}

// ladderStep is one offered rate of the advise-read ladder and whether
// it met the service objective.
type ladderStep struct {
	Rate    float64 `json:"offered_rps"`
	P99     float64 `json:"p99_ms"` // NaN when the step had too few samples
	Failed  int     `json:"failed"`
	Backlog bool    `json:"growing_backlog"`
}

// ok reports whether the step met every objective: a supported p99 at or
// below limitMs, no failed request, and no growing backlog.
func (s ladderStep) ok(limitMs float64) bool {
	return !math.IsNaN(s.P99) && s.P99 <= limitMs && s.Failed == 0 && !s.Backlog
}

// maxRate returns the highest offered rate meeting the objective, given
// steps sorted by increasing rate. Steps are walked upward until the
// first that misses. When that step missed on latency alone, the rate is
// interpolated linearly in p99 between it and the last passing step;
// when it missed on failures or backlog, the last passing rate is
// returned. It returns 0 when the lowest step misses, and the top rate
// when every step passes.
func maxRate(steps []ladderStep, limitMs float64) float64 {
	last := -1
	for i, s := range steps {
		if !s.ok(limitMs) {
			break
		}
		last = i
	}
	if last < 0 {
		return 0
	}
	if last == len(steps)-1 {
		return steps[last].Rate
	}
	lo, hi := steps[last], steps[last+1]
	if hi.Failed > 0 || hi.Backlog || math.IsNaN(hi.P99) || hi.P99 <= lo.P99 {
		return lo.Rate
	}
	frac := (limitMs - lo.P99) / (hi.P99 - lo.P99)
	return lo.Rate + frac*(hi.Rate-lo.Rate)
}
