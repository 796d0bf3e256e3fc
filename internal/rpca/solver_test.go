package rpca

import (
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/mat"
)

// syntheticTP builds a fat temporal-performance-style matrix: a low-rank
// constant component plus sparse spikes, the workload the solvers target.
func syntheticTP(rng *rand.Rand, r, c, rank int, spikeFrac float64) *mat.Dense {
	u := mat.RandomNormal(rng, r, rank, 0, 1)
	v := mat.RandomNormal(rng, c, rank, 0, 1)
	a := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			var s float64
			for l := 0; l < rank; l++ {
				s += u.At(i, l) * v.At(j, l)
			}
			a.Set(i, j, 10+s)
		}
	}
	n := int(spikeFrac * float64(r*c))
	for k := 0; k < n; k++ {
		a.Set(rng.Intn(r), rng.Intn(c), 10+20*rng.NormFloat64())
	}
	return a
}

// TestSolverMatchesPackageFunctions pins the arena solver to the
// package-level entry points (which are themselves arena-backed now, so
// this is a reuse-vs-fresh consistency check: a recycled Solver must give
// the same answers as a throwaway one), and both to the full-SVT
// reference solver within the repo's 1e-10 agreement bound.
func TestSolverMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSolver()
	for trial := 0; trial < 3; trial++ {
		a := syntheticTP(rng, 24, 256, 3, 0.05)

		fresh, err := Decompose(a, Options{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := s.Decompose(a, Options{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Iterations != reused.Iterations || fresh.RankD != reused.RankD {
			t.Fatalf("trial %d: fresh (it=%d rank=%d) vs reused (it=%d rank=%d)",
				trial, fresh.Iterations, fresh.RankD, reused.Iterations, reused.RankD)
		}
		if d := mat.NormFroDiff(fresh.D, reused.D); d != 0 {
			t.Fatalf("trial %d: reused solver D deviates by %g", trial, d)
		}
		ref, err := decomposeFullSVT(a, Options{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []struct {
			name     string
			got, ref *mat.Dense
		}{{"D", reused.D, ref.D}, {"E", reused.E, ref.E}} {
			rel := mat.NormFroDiff(part.got, part.ref) / math.Max(1, part.ref.NormFrobenius())
			if !(rel <= 1e-10) { // also fails on NaN
				t.Fatalf("trial %d: arena %s deviates from the full-SVT reference by %g relative", trial, part.name, rel)
			}
		}

		freshI, err := DecomposeIALM(a, IALMOptions{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		reusedI, err := s.DecomposeIALM(a, IALMOptions{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		if freshI.Iterations != reusedI.Iterations ||
			mat.NormFroDiff(freshI.D, reusedI.D) != 0 {
			t.Fatalf("trial %d: reused IALM deviates from fresh", trial)
		}
	}
}

// TestSolverResultsDetached checks the returned matrices are copies, not
// arena aliases: a later solve must not mutate an earlier result.
func TestSolverResultsDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewSolver()
	a1 := syntheticTP(rng, 16, 128, 2, 0.05)
	a2 := syntheticTP(rng, 16, 128, 2, 0.05)
	r1, err := s.DecomposeIALM(a1, IALMOptions{MaxIter: 80})
	if err != nil {
		t.Fatal(err)
	}
	d1 := r1.D.Clone()
	if _, err := s.DecomposeIALM(a2, IALMOptions{MaxIter: 80}); err != nil {
		t.Fatal(err)
	}
	if mat.NormFroDiff(r1.D, d1) != 0 {
		t.Fatal("second solve mutated the first result: arena leaked into Result")
	}
}

// TestAPGStepAllocationFree is the headline regression for the arena
// rewrite: once the solver is bound and past the cold SVT, each APG
// iteration must perform zero heap allocations (sequential path;
// parallelism is forced to 1 because pool dispatch allocates task chunks).
func TestAPGStepAllocationFree(t *testing.T) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	rng := rand.New(rand.NewSource(7))
	a := syntheticTP(rng, 48, 512, 3, 0.05)

	s := NewSolver()
	if _, err := s.Decompose(a, Options{MaxIter: 4}); err != nil {
		t.Fatal(err)
	}
	// Re-enter the iteration state by hand and warm it up.
	it := apgIter{s: s, a: a, lambda: 1 / math.Sqrt(512), mu: 0.5 * a.NormSpectral(),
		muBar: 1e-9, eta: 0.9, t: 1, tPrev: 1}
	for k := 0; k < 10; k++ {
		it.step()
	}
	if allocs := testing.AllocsPerRun(20, func() { it.step() }); allocs != 0 {
		t.Fatalf("APG step allocates %.1f objects/iteration, want 0", allocs)
	}
}

// TestIALMStepAllocationFree: same guarantee for the IALM iteration,
// masked variant included.
func TestIALMStepAllocationFree(t *testing.T) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	rng := rand.New(rand.NewSource(8))
	a := syntheticTP(rng, 48, 512, 3, 0.05)

	s := NewSolver()
	if _, err := s.DecomposeIALM(a, IALMOptions{MaxIter: 4}); err != nil {
		t.Fatal(err)
	}
	it := ialmIter{s: s, a: a, lambda: 1 / math.Sqrt(512), mu: 0.1, muBar: 1e6, rho: 1.05}
	for k := 0; k < 10; k++ {
		it.step()
	}
	if allocs := testing.AllocsPerRun(20, func() { it.step() }); allocs != 0 {
		t.Fatalf("IALM step allocates %.1f objects/iteration, want 0", allocs)
	}

	// Masked: mark ~10% of entries unobserved, rebuild the fill, re-warm.
	mask := mat.NewDense(48, 512)
	md := mask.Data()
	for i := range md {
		if rng.Float64() < 0.9 {
			md[i] = 1
		}
	}
	if _, err := s.DecomposeMasked(a, mask, IALMOptions{MaxIter: 4}); err != nil {
		t.Fatal(err)
	}
	itm := ialmIter{s: s, a: s.fill, lambda: 1 / math.Sqrt(512), mu: 0.1, muBar: 1e6,
		rho: 1.05, masked: true}
	for k := 0; k < 10; k++ {
		itm.step()
	}
	if allocs := testing.AllocsPerRun(20, func() { itm.step() }); allocs != 0 {
		t.Fatalf("masked IALM step allocates %.1f objects/iteration, want 0", allocs)
	}
}

// TestSolverMaskedMatchesPackage: a reused solver on the masked route
// agrees with a fresh one and keeps interpolating gaps.
func TestSolverMaskedMatchesPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := syntheticTP(rng, 20, 160, 2, 0.03)
	mask := mat.NewDense(20, 160)
	md := mask.Data()
	for i := range md {
		if rng.Float64() < 0.85 {
			md[i] = 1
		}
	}
	fresh, err := NewSolver().DecomposeMasked(a, mask, IALMOptions{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	// Prior unrelated solve: the arena must be fully re-initialized.
	if _, err := s.Decompose(syntheticTP(rng, 20, 160, 4, 0.1), Options{MaxIter: 30}); err != nil {
		t.Fatal(err)
	}
	reused, err := s.DecomposeMasked(a, mask, IALMOptions{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Iterations != reused.Iterations || mat.NormFroDiff(fresh.D, reused.D) != 0 {
		t.Fatalf("masked reuse deviates: it %d vs %d, |ΔD| = %g",
			fresh.Iterations, reused.Iterations, mat.NormFroDiff(fresh.D, reused.D))
	}
}
