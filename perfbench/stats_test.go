package main

import (
	"math"
	"testing"
)

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if !math.IsNaN(percentileOf(make([]float64, 999), 99)) {
		t.Error("p99 of 999 samples should be unsupported")
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	s := summarize(v)
	if s.N != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("summarize = %+v", s)
	}
	if v[0] != 5 {
		t.Fatal("summarize sorted its input in place")
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	steps := []ladderStep{{Rate: 1000, P99: 5}, {Rate: 2000, P99: 10}, {Rate: 3000, P99: 30}, {Rate: 4000, P99: 8}}
	if got := maxRate(steps, 20); math.Abs(got-2500) > 1e-9 {
		t.Errorf("interpolated max rate = %v, want 2500", got)
	}
	// A step that fails on errors or backlog is not interpolated into.
	failing := []ladderStep{{Rate: 1000, P99: 5}, {Rate: 2000, P99: 10, Failed: 1}}
	if got := maxRate(failing, 20); got != 1000 {
		t.Errorf("max rate with failures = %v, want 1000", got)
	}
	backlog := []ladderStep{{Rate: 1000, P99: 5}, {Rate: 2000, P99: 10, Backlog: true}}
	if got := maxRate(backlog, 20); got != 1000 {
		t.Errorf("max rate with backlog = %v, want 1000", got)
	}
	unsupported := []ladderStep{{Rate: 1000, P99: 5}, {Rate: 2000, P99: math.NaN()}}
	if got := maxRate(unsupported, 20); got != 1000 {
		t.Errorf("max rate with unsupported p99 = %v, want 1000", got)
	}
	all := []ladderStep{{Rate: 1000, P99: 5}, {Rate: 2000, P99: 6}}
	if got := maxRate(all, 20); got != 2000 {
		t.Errorf("max rate when all pass = %v, want 2000", got)
	}
	if got := maxRate([]ladderStep{{Rate: 1000, P99: 50}}, 20); got != 0 {
		t.Errorf("max rate when the lowest step fails = %v, want 0", got)
	}
}
