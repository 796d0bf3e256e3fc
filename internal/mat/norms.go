package mat

import "math"

// NormFrobenius returns the Frobenius norm sqrt(Σ aij²).
//
//netlint:hotpath
func (m *Dense) NormFrobenius() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormL1 returns the entrywise L1 norm Σ |aij| (the convex relaxation of
// the L0 norm used by RPCA's sparse term).
func (m *Dense) NormL1() float64 {
	var s float64
	for _, v := range m.data {
		s += math.Abs(v)
	}
	return s
}

// NormL0 counts entries with |aij| > eps. The paper's problem statement is
// written with the exact zero norm; any practical measurement matrix is
// fully dense with noise, so a tolerance is required to make the count
// meaningful.
func (m *Dense) NormL0(eps float64) float64 {
	var n float64
	for _, v := range m.data {
		if math.Abs(v) > eps {
			n++
		}
	}
	return n
}

// NormMax returns the max-absolute-entry norm.
func (m *Dense) NormMax() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// NormSpectral returns the largest singular value, computed by power
// iteration on mᵀm (cheap and allocation-light; sufficient for step-size
// selection in proximal methods).
func (m *Dense) NormSpectral() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	// Power-iterate x <- normalize(mᵀ (m x)).
	x := make([]float64, m.cols)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(len(x)))
	}
	var sigma, prevDelta float64
	for iter := 0; iter < 500; iter++ {
		y := m.MulVec(x)
		z := m.MulTVec(y)
		n := Normalize(z)
		if n == 0 {
			return 0
		}
		newSigma := math.Sqrt(n)
		delta := newSigma - sigma
		x = z
		if iter > 0 && math.Abs(delta) <= 1e-13*math.Max(1, newSigma) {
			return newSigma
		}
		// Clustered leading singular values converge geometrically with
		// ratio ρ = (σ₂/σ₁)² ≈ 1, where the per-step delta understates
		// the remaining gap by 1/(1−ρ). Once the delta sequence looks
		// geometric (same sign, shrinking), extrapolate the tail
		// (Aitken Δ²) and stop when the corrected estimate has converged.
		if iter > 1 {
			rho := delta / prevDelta
			if rho > 0 && rho < 1 {
				tail := delta * rho / (1 - rho)
				if math.Abs(tail) <= 1e-10*math.Max(1, newSigma) {
					return newSigma + tail
				}
			}
		}
		prevDelta = delta
		sigma = newSigma
	}
	return sigma
}

// Rank returns the numerical rank: the number of singular values larger
// than tol·σmax. A tol of 0 uses the conventional machine-precision
// threshold max(r,c)·eps.
func (m *Dense) Rank(tol float64) int {
	sv := m.SingularValues()
	if len(sv) == 0 {
		return 0
	}
	if tol <= 0 {
		tol = float64(maxInt(m.rows, m.cols)) * 2.22e-16
	}
	thresh := tol * sv[0]
	r := 0
	for _, v := range sv {
		if v > thresh {
			r++
		}
	}
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
