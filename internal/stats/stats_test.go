package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent1 := NewRNG(7)
	parent2 := NewRNG(7)
	c1 := Split(parent1, 1)
	c2 := Split(parent2, 1)
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("split with same parent+tag should be deterministic")
		}
	}
	// Different tags should (overwhelmingly) give different streams.
	d1 := Split(NewRNG(7), 1)
	d2 := Split(NewRNG(7), 2)
	same := true
	for i := 0; i < 10; i++ {
		if d1.Float64() != d2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different tags produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		x := Uniform(r, 2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("uniform out of range: %v", x)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = Exponential(r, 5)
	}
	m := Mean(xs)
	if math.Abs(m-5) > 0.2 {
		t.Errorf("exponential mean %.3f, want ~5", m)
	}
	if Exponential(r, 0) != 0 || Exponential(r, -1) != 0 {
		t.Error("nonpositive mean should yield 0")
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if Bernoulli(r, 0.25) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.25) > 0.02 {
		t.Errorf("bernoulli rate %.3f, want ~0.25", p)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(6)
	s := SampleWithoutReplacement(r, 10, 5)
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k > n")
		}
	}()
	SampleWithoutReplacement(r, 3, 4)
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v)=%v want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single-element quantile")
	}
}

func TestMeanGeoMean(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	c := NewCDF(xs)
	xs[0] = 100 // the CDF holds its own copy
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3, 2},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v)=%v want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Error("empty CDF quantile should be NaN")
	}
}

func TestCDFMonotonic(t *testing.T) {
	r := NewRNG(8)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	c := NewCDF(xs)
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := c.Quantile(q)
		if v < prev {
			t.Fatalf("CDF quantile not monotone at q=%v", q)
		}
		prev = v
	}
}

func TestRelImprovement(t *testing.T) {
	if RelImprovement(10, 7) != 0.3 {
		t.Error("rel improvement")
	}
	if !math.IsNaN(RelImprovement(0, 1)) {
		t.Error("zero base should be NaN")
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		v := NewCDF(xs).Quantile(q)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPerm(t *testing.T) {
	r := NewRNG(10)
	p := Perm(r, 6)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 6 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100} // outlier
	plain := Mean(xs)
	trimmed := TrimmedMean(xs, 0.2) // drops 1 and 100
	if trimmed != 3 {
		t.Errorf("trimmed mean %v want 3", trimmed)
	}
	if trimmed >= plain {
		t.Error("trimming should reduce the outlier's pull")
	}
	if !math.IsNaN(TrimmedMean(nil, 0.1)) {
		t.Error("empty should be NaN")
	}
	// Clamps: negative trim behaves like mean; >=0.5 keeps at least the middle.
	if TrimmedMean(xs, -1) != plain {
		t.Error("negative trim should behave like mean")
	}
	if v := TrimmedMean(xs, 0.9); math.IsNaN(v) {
		t.Error("over-trim should still return a value")
	}
}

// TestCountingSourceStream: a rand.Rand over a CountingSource draws the
// plain NewRNG stream through every sampler, and a fresh source skipped
// by the recorded count continues exactly where the recorded one stood.
func TestCountingSourceStream(t *testing.T) {
	const seed = 20261018
	draw := func(r *rand.Rand, i int) float64 {
		switch i % 6 {
		case 0:
			return r.Float64()
		case 1:
			return r.NormFloat64()
		case 2:
			return r.ExpFloat64()
		case 3:
			return float64(r.Intn(1000 + i))
		case 4:
			p := r.Perm(5 + i%7)
			return float64(p[0]*10 + p[len(p)-1])
		default:
			return float64(r.Uint64() >> 11)
		}
	}
	plain := NewRNG(seed)
	src := NewCountingSource(seed)
	counted := rand.New(src)
	for i := 0; i < 3000; i++ {
		if a, b := draw(plain, i), draw(counted, i); a != b {
			t.Fatalf("draw %d: counted stream %v, plain %v", i, b, a)
		}
	}
	if src.Draws() < 3000 {
		t.Fatalf("3000 mixed draws counted as %d steps", src.Draws())
	}

	resumed := NewCountingSource(seed)
	resumed.Skip(src.Draws())
	if resumed.Draws() != src.Draws() {
		t.Fatalf("skipped source reports %d steps, want %d", resumed.Draws(), src.Draws())
	}
	again := rand.New(resumed)
	for i := 3000; i < 4000; i++ {
		if a, b := draw(counted, i), draw(again, i); a != b {
			t.Fatalf("draw %d after fast-forward: %v, want %v", i, b, a)
		}
	}
	if resumed.Draws() != src.Draws() {
		t.Fatalf("streams drifted: %d vs %d steps", resumed.Draws(), src.Draws())
	}
	src.Seed(seed)
	if src.Draws() != 0 || counted.Float64() != NewRNG(seed).Float64() {
		t.Fatal("reseeding did not restart the stream and its count")
	}
}
