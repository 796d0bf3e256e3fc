package mat

import "math"

// QRResult is a thin QR decomposition A = Q·R with Q of size r×k
// column-orthonormal and R of size k×c upper-triangular, k = min(r, c).
type QRResult struct {
	Q *Dense
	R *Dense
}

// QR computes a thin QR decomposition via Householder reflections.
func (m *Dense) QR() *QRResult {
	r, c := m.rows, m.cols
	k := min(r, c)
	a := m.Clone()
	// Accumulate Q by applying the reflectors to the identity afterwards;
	// store reflector vectors in-place below the diagonal plus a separate
	// slice of taus.
	vs := make([][]float64, 0, k)

	for j := 0; j < k; j++ {
		// Build the Householder vector for column j, rows j..r-1.
		var norm float64
		for i := j; i < r; i++ {
			x := a.data[i*c+j]
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			vs = append(vs, nil)
			continue
		}
		alpha := a.data[j*c+j]
		if alpha > 0 {
			norm = -norm
		}
		v := make([]float64, r-j)
		v[0] = alpha - norm
		for i := j + 1; i < r; i++ {
			v[i-j] = a.data[i*c+j]
		}
		vn := VecNorm2(v)
		if vn == 0 {
			vs = append(vs, nil)
			continue
		}
		for i := range v {
			v[i] /= vn
		}
		vs = append(vs, v)
		// Apply reflector H = I - 2vvᵀ to the trailing submatrix.
		for col := j; col < c; col++ {
			var dot float64
			for i := j; i < r; i++ {
				dot += v[i-j] * a.data[i*c+col]
			}
			dot *= 2
			for i := j; i < r; i++ {
				a.data[i*c+col] -= dot * v[i-j]
			}
		}
	}

	// Extract R (upper triangle of the k leading rows).
	rr := NewDense(k, c)
	for i := 0; i < k; i++ {
		for j := i; j < c; j++ {
			rr.data[i*c+j] = a.data[i*c+j]
		}
	}

	// Form thin Q by applying reflectors in reverse to the first k columns
	// of the identity.
	q := NewDense(r, k)
	for j := 0; j < k; j++ {
		q.data[j*k+j] = 1
	}
	for j := k - 1; j >= 0; j-- {
		v := vs[j]
		if v == nil {
			continue
		}
		for col := 0; col < k; col++ {
			var dot float64
			for i := j; i < r; i++ {
				dot += v[i-j] * q.data[i*k+col]
			}
			dot *= 2
			for i := j; i < r; i++ {
				q.data[i*k+col] -= dot * v[i-j]
			}
		}
	}
	return &QRResult{Q: q, R: rr}
}

// SolveUpperTriangular solves R·x = b for upper-triangular square R by back
// substitution. Zero (or numerically tiny) pivots panic.
func SolveUpperTriangular(r *Dense, b []float64) []float64 {
	n := r.rows
	if r.cols < n || len(b) != n {
		panic("mat: SolveUpperTriangular dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= r.data[i*r.cols+j] * x[j]
		}
		piv := r.data[i*r.cols+i]
		if math.Abs(piv) < 1e-300 {
			panic("mat: singular triangular system")
		}
		x[i] = s / piv
	}
	return x
}

// LeastSquares solves min ‖A·x − b‖₂ via thin QR (A must have full column
// rank and at least as many rows as columns).
func LeastSquares(a *Dense, b []float64) []float64 {
	if a.rows < a.cols {
		panic("mat: LeastSquares needs rows >= cols")
	}
	qr := a.QR()
	qtb := qr.Q.MulTVec(b)
	return SolveUpperTriangular(qr.R, qtb)
}
