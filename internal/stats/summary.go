package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P5     float64
	P95    float64
}

// Summarize computes descriptive statistics for xs. It returns the zero
// Summary for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P5 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation between order statistics. A NaN q has
// no defined order statistic and yields NaN.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TrimmedMean returns the mean of xs after discarding the lowest and
// highest trim fraction of observations (e.g. trim=0.1 drops 10% at each
// end). It is robust to the heavy-tailed samples that extreme network
// dynamics produce. Returns NaN for empty input; trim is clamped to
// [0, 0.5).
func TrimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if trim < 0 {
		trim = 0
	}
	if trim >= 0.5 {
		trim = 0.49
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(trim * float64(len(sorted)))
	kept := sorted[k : len(sorted)-k]
	return Mean(kept)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample (which is copied).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x) under the empirical distribution.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the sample.
func (c *CDF) Quantile(q float64) float64 { return Quantile(c.sorted, q) }

// Points returns up to k (x, P(X<=x)) pairs evenly spaced through the
// sample, convenient for rendering a CDF curve (paper Figs 7b, 11b, 13b).
func (c *CDF) Points(k int) [][2]float64 {
	n := len(c.sorted)
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([][2]float64, 0, k)
	for i := 0; i < k; i++ {
		idx := n - 1
		if k > 1 {
			idx = i * (n - 1) / (k - 1)
		}
		out = append(out, [2]float64{c.sorted[idx], float64(idx+1) / float64(n)})
	}
	return out
}

// Histogram bins a sample into nbins equal-width bins over [min,max].
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// NewHistogram bins xs into nbins equal-width bins spanning the sample
// range. A non-positive nbins yields an empty histogram. Non-finite samples
// (NaN, ±Inf) carry no binnable magnitude and are ignored; if no finite
// sample remains the histogram is empty.
func NewHistogram(xs []float64, nbins int) Histogram {
	if nbins < 0 {
		nbins = 0
	}
	h := Histogram{Counts: make([]int, nbins)}
	if nbins == 0 {
		return h
	}
	finite := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if finite == 0 {
			h.Min, h.Max = x, x
		} else {
			if x < h.Min {
				h.Min = x
			}
			if x > h.Max {
				h.Max = x
			}
		}
		finite++
	}
	if finite == 0 {
		return h
	}
	width := (h.Max - h.Min) / float64(nbins)
	if width == 0 {
		h.Counts[0] = finite
		return h
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		i := int((x - h.Min) / width)
		if i >= nbins {
			i = nbins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P95, s.Max)
}

// RelImprovement returns (base-opt)/base, the fractional improvement of opt
// over base; e.g. 0.3 means "30% faster than base". Returns NaN if base==0.
func RelImprovement(base, opt float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (base - opt) / base
}
