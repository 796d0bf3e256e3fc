package rpca

import (
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/mat"
)

func TestIALMExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, dTrue, eTrue := synth(rng, 40, 40, 2, 0.05, 10)
	res, err := NewSolver().DecomposeIALM(a, IALMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("IALM did not converge")
	}
	relD := res.D.Sub(dTrue).NormFrobenius() / dTrue.NormFrobenius()
	relE := res.E.Sub(eTrue).NormFrobenius() / math.Max(1, eTrue.NormFrobenius())
	if relD > 0.02 {
		t.Errorf("IALM low-rank recovery error %.4f", relD)
	}
	if relE > 0.1 {
		t.Errorf("IALM sparse recovery error %.4f", relE)
	}
}

func TestIALMAgreesWithAPG(t *testing.T) {
	// Two independent solvers must land on (numerically) the same
	// decomposition of a well-posed instance.
	rng := rand.New(rand.NewSource(22))
	a, _, _ := synth(rng, 25, 30, 2, 0.08, 8)
	apg, err := NewSolver().Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ialm, err := NewSolver().DecomposeIALM(a, IALMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	diff := apg.D.Sub(ialm.D).NormFrobenius() / math.Max(1, apg.D.NormFrobenius())
	if diff > 0.02 {
		t.Errorf("APG and IALM disagree on D: rel %.4f", diff)
	}
}

func TestIALMConvergesFasterThanAPG(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, _, _ := synth(rng, 30, 30, 3, 0.05, 10)
	apg, err := NewSolver().Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ialm, err := NewSolver().DecomposeIALM(a, IALMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ialm.Iterations >= apg.Iterations {
		t.Errorf("IALM (%d iters) expected to beat APG (%d iters)", ialm.Iterations, apg.Iterations)
	}
}

func TestIALMSumInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a, _, _ := synth(rng, 15, 20, 2, 0.1, 5)
	res, err := NewSolver().DecomposeIALM(a, IALMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel := res.D.Add(res.E).Sub(a).NormFrobenius() / a.NormFrobenius()
	if rel > 1e-5 {
		t.Errorf("A = D + E violated: %v", rel)
	}
}

func TestIALMEdgeCases(t *testing.T) {
	if _, err := NewSolver().DecomposeIALM(mat.NewDense(0, 3), IALMOptions{}); err == nil {
		t.Error("empty should error")
	}
	res, err := NewSolver().DecomposeIALM(mat.NewDense(4, 4), IALMOptions{})
	if err != nil || !res.Converged {
		t.Error("zero matrix should converge trivially")
	}
	// MaxIter respected.
	rng := rand.New(rand.NewSource(25))
	a, _, _ := synth(rng, 10, 10, 2, 0.1, 5)
	lim, err := NewSolver().DecomposeIALM(a, IALMOptions{MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lim.Iterations != 2 || lim.Converged {
		t.Errorf("MaxIter handling: %d converged=%v", lim.Iterations, lim.Converged)
	}
}

func TestIALMConstantRowPipeline(t *testing.T) {
	// End-to-end: TP-style matrix through IALM gives the same constant row
	// as through APG.
	rng := rand.New(rand.NewSource(26))
	constant := make([]float64, 49)
	for j := range constant {
		constant[j] = 20 + 80*rng.Float64()
	}
	a := ConstantMatrix(constant, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 49; j++ {
			if rng.Float64() < 0.07 {
				a.Set(i, j, a.At(i, j)*(1+2*rng.Float64()))
			}
		}
	}
	apg, _ := NewSolver().Decompose(a, Options{Lambda: 0.316})
	ialm, _ := NewSolver().DecomposeIALM(a, IALMOptions{Lambda: 0.316})
	rowA := ConstantRow(apg.D, ExtractMedian)
	rowI := ConstantRow(ialm.D, ExtractMedian)
	if d := RelDiff(rowA, rowI); d > 0.03 {
		t.Errorf("constant rows disagree: %v", d)
	}
	if d := RelDiff(rowI, constant); d > 0.05 {
		t.Errorf("IALM constant recovery: %v", d)
	}
}
