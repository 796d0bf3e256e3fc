package stats

// Regression tests for an edge-case panic fixed in the stats layer:
// Quantile(sorted, NaN) fell through both clamp branches and indexed the
// sample with a garbage truncated-NaN position.

import (
	"math"
	"testing"
)

func TestQuantileNaN(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if got := Quantile(sorted, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(sorted, NaN) = %v, want NaN", got)
	}
	// Single-element and empty samples keep their existing contract.
	if got := Quantile([]float64{7}, math.NaN()); got != 7 {
		t.Errorf("Quantile([7], NaN) = %v, want 7", got)
	}
	if got := Quantile(nil, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(nil, NaN) = %v, want NaN", got)
	}
	// The fix must not disturb ordinary quantiles.
	if got := Quantile(sorted, 0.5); got != 2.5 {
		t.Errorf("Quantile(sorted, 0.5) = %v, want 2.5", got)
	}
}

func FuzzQuantile(f *testing.F) {
	f.Add(0.5, 1.0, 2.0, 3.0)
	f.Add(math.NaN(), 0.0, 0.0, 0.0)
	f.Add(-1.5, 9.0, -4.0, 2.5)
	f.Add(2.0, 1.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, q, a, b, c float64) {
		xs := []float64{a, b, c}
		// Quantile requires sorted input; NaN-laced samples are allowed to
		// produce NaN but must never panic.
		sorted := append([]float64(nil), xs...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		got := Quantile(sorted, q)
		if math.IsNaN(got) {
			return
		}
		lo, hi := sorted[0], sorted[len(sorted)-1]
		if !math.IsNaN(lo) && !math.IsNaN(hi) && (got < math.Min(lo, hi) || got > math.Max(lo, hi)) {
			t.Errorf("Quantile(%v, %v) = %v outside sample range", sorted, q, got)
		}
	})
}
