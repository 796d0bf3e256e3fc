package rpca

// Solver is the arena-backed engine behind Decompose, DecomposeIALM and
// DecomposeMasked. It owns every per-iteration buffer plus a warm-started
// truncated-SVT workspace, so solving a sequence of same-shaped temporal
// performance matrices — the advisor re-analyzes after every calibration —
// performs zero heap allocations in steady-state iterations: each step is
// a handful of fused elementwise kernels and one (usually truncated) SVT
// into preallocated storage.
//
// A Solver is not safe for concurrent use. The package-level functions
// construct a throwaway Solver per call and remain the convenient entry
// points; hot paths hold one Solver and reuse it.

import (
	"errors"
	"fmt"
	"math"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// Solver holds the iteration arena. The zero value is not usable; call
// NewSolver. Buffers bind lazily to the first decomposed shape and rebind
// automatically when the shape changes.
type Solver struct {
	rows, cols int
	svt        *mat.SVTWorkspace

	// carryWarm, set by the streaming solver, keeps the SVT warm subspace
	// across solves (and, with the workspace's CarryAcrossWidths, across
	// widths) instead of resetting it per bind — the whole point of
	// warm-started incremental re-solves. Batch solvers leave it false:
	// independent solves must not inherit a previous problem's subspace.
	carryWarm bool

	// APG slots. dPrev/ePrev double as the "next" iterate target each
	// step, so the rotation needs no third buffer.
	d, e, dPrev, ePrev, yd, ye, g *mat.Dense

	// IALM / masked slots.
	y, t, z, aObs, fill *mat.Dense

	obs []bool // masked route: observed-entry flags, row-major
}

// NewSolver returns a Solver with an empty arena.
func NewSolver() *Solver {
	return &Solver{svt: mat.NewSVTWorkspace()}
}

// SVTStats reports how many SVT calls over the solver's lifetime used a
// full decomposition and how many the warm-started truncated route —
// diagnostics for benchmarking the partial-SVD acceleration.
func (s *Solver) SVTStats() (full, truncated int) { return s.svt.Stats() }

// bind (re)allocates the arena for an r×c problem. Unless carryWarm is
// set, binding resets the SVT warm state even at the already-bound shape
// (each batch solve must not inherit the previous solve's subspace).
func (s *Solver) bind(r, c int) {
	if !s.carryWarm {
		s.svt.Reset()
	}
	if s.rows == r && s.cols == c {
		return
	}
	s.rows, s.cols = r, c
	s.d = mat.NewDense(r, c)
	s.e = mat.NewDense(r, c)
	s.dPrev = mat.NewDense(r, c)
	s.ePrev = mat.NewDense(r, c)
	s.yd = mat.NewDense(r, c)
	s.ye = mat.NewDense(r, c)
	s.g = mat.NewDense(r, c)
	s.y = mat.NewDense(r, c)
	s.t = mat.NewDense(r, c)
	s.z = mat.NewDense(r, c)
	s.aObs = mat.NewDense(r, c)
	s.fill = mat.NewDense(r, c)
	s.obs = make([]bool, r*c)
}

// --- APG ---------------------------------------------------------------

// apgIter carries the per-solve scalar state of the APG continuation loop;
// step advances one iteration against the solver arena.
type apgIter struct {
	s         *Solver
	a         *mat.Dense
	lambda    float64
	mu, muBar float64
	eta       float64
	t, tPrev  float64
}

// step performs one APG iteration: Nesterov extrapolation, gradient step,
// SVT on the low-rank block, soft threshold on the sparse block, iterate
// rotation and continuation decay. It returns the unnormalized iterate
// change and the post-SVT rank. Allocation-free after arena binding.
//
//netlint:hotpath
func (it *apgIter) step() (num float64, rank int) {
	s := it.s
	beta := (it.tPrev - 1) / it.t
	mat.MomentumInto(s.yd, s.d, s.dPrev, beta)
	mat.MomentumInto(s.ye, s.e, s.ePrev, beta)

	// g = Y_D + Y_E − A; the gradient step subtracts g/2 from each block.
	mat.LinComb3Into(s.g, 1, s.yd, 1, s.ye, -1, it.a)
	mat.LinComb2Into(s.yd, 1, s.yd, -0.5, s.g)
	rank = s.svt.SVTInto(s.dPrev, s.yd, it.mu/2) // next D into the spare slot
	mat.LinComb2Into(s.ye, 1, s.ye, -0.5, s.g)
	mat.SoftThresholdInto(s.ePrev, s.ye, it.lambda*it.mu/2)

	num = mat.NormFroDiff(s.dPrev, s.d) + mat.NormFroDiff(s.ePrev, s.e)
	s.d, s.dPrev = s.dPrev, s.d
	s.e, s.ePrev = s.ePrev, s.e
	it.tPrev, it.t = it.t, (1+math.Sqrt(1+4*it.t*it.t))/2
	//netlint:allow floatsafe mu/eta/muBar are solver constants seeded from norms of the entry-validated (NaN/Inf-rejected) input
	it.mu = math.Max(it.eta*it.mu, it.muBar)
	return num, rank
}

// Decompose runs APG RPCA on a (see the package-level Decompose for the
// algorithm description). The input is not modified; the returned matrices
// are owned by the caller, not the arena.
func (s *Solver) Decompose(a *mat.Dense, opts Options) (*Result, error) {
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return nil, errors.New("rpca: empty matrix")
	}
	if err := checkFinite(a); err != nil {
		return nil, err
	}
	lambda := opts.Lambda
	if lambda <= 0 {
		lambda = 1 / math.Sqrt(float64(max(r, c)))
	}
	mu := opts.Mu0
	if mu <= 0 {
		mu = 0.99 * a.NormSpectral()
		if mu == 0 {
			return &Result{D: mat.NewDense(r, c), E: mat.NewDense(r, c), Converged: true}, nil
		}
	}
	muBar := opts.MuBar
	if muBar <= 0 {
		muBar = 1e-9 * mu
	}
	eta := opts.Eta
	if eta <= 0 || eta >= 1 {
		eta = 0.9
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-7
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 500
	}

	s.bind(r, c)
	s.d.Zero()
	s.e.Zero()
	s.dPrev.Zero()
	s.ePrev.Zero()
	den := math.Max(1, a.NormFrobenius())
	it := apgIter{s: s, a: a, lambda: lambda, mu: mu, muBar: muBar, eta: eta, t: 1, tPrev: 1}

	res := &Result{}
	for k := 0; k < maxIter; k++ {
		if err := cancel.Check(opts.Ctx, "rpca.Decompose", k, maxIter); err != nil {
			return nil, err
		}
		num, rank := it.step()
		res.Iterations = k + 1
		res.RankD = rank
		if num/den < tol {
			res.Converged = true
			break
		}
	}
	res.D = s.d.Clone()
	res.E = s.e.Clone()
	return res, nil
}

// --- IALM --------------------------------------------------------------

// ialmIter carries the scalar state of the IALM loop over the arena.
type ialmIter struct {
	s          *Solver
	a          *mat.Dense // the working data matrix (aObs-filled for masked)
	lambda     float64
	mu, muBar  float64
	rho        float64
	masked     bool
	refD, refE *mat.Dense // not owned; aliases of arena slots
}

// step performs one IALM iteration against the arena: SVT D-step, soft
// threshold E-step (mask-confined when masked), residual, multiplier
// update and penalty growth. Returns the residual Frobenius norm and the
// post-SVT rank. Allocation-free after arena binding.
//
//netlint:hotpath
func (it *ialmIter) step() (resid float64, rank int) {
	s := it.s
	inv := 1 / it.mu

	// D-step: SVT of A − E + Y/μ at threshold 1/μ.
	mat.LinComb3Into(s.t, 1, it.a, -1, s.e, inv, s.y)
	rank = s.svt.SVTInto(s.d, s.t, inv)

	// E-step: soft threshold of A − D + Y/μ at λ/μ.
	mat.LinComb3Into(s.t, 1, it.a, -1, s.d, inv, s.y)
	mat.SoftThresholdInto(s.e, s.t, it.lambda*inv)
	if it.masked {
		ed := s.e.Data()
		for i, ob := range s.obs {
			if !ob {
				ed[i] = 0
			}
		}
	}

	// Residual z = A − D − E (observed entries only when masked).
	mat.LinComb3Into(s.z, 1, it.a, -1, s.d, -1, s.e)
	if it.masked {
		zd := s.z.Data()
		for i, ob := range s.obs {
			if !ob {
				zd[i] = 0
			}
		}
	}
	mat.AddScaledInPlace(s.y, it.mu, s.z)
	//netlint:allow floatsafe mu/rho/muBar are solver constants seeded from norms of the entry-validated (NaN/Inf-rejected) input
	it.mu = math.Min(it.rho*it.mu, it.muBar)

	if it.masked {
		// Refresh the unobserved fill from the current completion D+E.
		fd, dd, ed := it.a.Data(), s.d.Data(), s.e.Data()
		for i, ob := range s.obs {
			if !ob {
				fd[i] = dd[i] + ed[i]
			}
		}
	}
	return s.z.NormFrobenius(), rank
}

// DecomposeIALM runs the inexact-ALM solver on a over the arena (see the
// package-level DecomposeIALM). The returned matrices are caller-owned.
func (s *Solver) DecomposeIALM(a *mat.Dense, opts IALMOptions) (*Result, error) {
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return nil, errors.New("rpca: empty matrix")
	}
	if err := checkFinite(a); err != nil {
		return nil, err
	}
	lambda, mu, muBar, rho, tol, maxIter, normAF, scale, zero := ialmParams(a, opts)
	if zero {
		return &Result{D: mat.NewDense(r, c), E: mat.NewDense(r, c), Converged: true}, nil
	}

	s.bind(r, c)
	s.e.Zero()
	s.d.Zero()
	s.y.CopyFrom(a)
	s.y.ScaleInPlace(1 / scale)
	it := ialmIter{s: s, a: a, lambda: lambda, mu: mu, muBar: muBar, rho: rho}

	res := &Result{}
	for k := 0; k < maxIter; k++ {
		if err := cancel.Check(opts.Ctx, "rpca.DecomposeIALM", k, maxIter); err != nil {
			return nil, err
		}
		resid, rank := it.step()
		res.Iterations = k + 1
		res.RankD = rank
		if resid <= tol*math.Max(1, normAF) {
			res.Converged = true
			break
		}
	}
	res.D = s.d.Clone()
	res.E = s.e.Clone()
	return res, nil
}

// ialmParams resolves IALM defaults against the (possibly mask-projected)
// data matrix; zero reports the all-zero input shortcut.
func ialmParams(a *mat.Dense, opts IALMOptions) (lambda, mu, muBar, rho, tol float64, maxIter int, normAF, scale float64, zero bool) {
	r, c := a.Dims()
	lambda = opts.Lambda
	if lambda <= 0 {
		lambda = 1 / math.Sqrt(float64(max(r, c)))
	}
	normA2 := a.NormSpectral()
	if normA2 == 0 {
		return 0, 0, 0, 0, 0, 0, 0, 0, true
	}
	mu = opts.Mu0
	if mu <= 0 {
		mu = 1.25 / normA2
	}
	muBar = mu * 1e7
	rho = opts.Rho
	if rho <= 1 {
		rho = 1.5
	}
	tol = opts.Tol
	if tol <= 0 {
		tol = 1e-7
	}
	maxIter = opts.MaxIter
	if maxIter <= 0 {
		maxIter = 1000
	}
	normAF = a.NormFrobenius()
	//netlint:allow floatsafe both operands are norms of the entry-validated (NaN/Inf-rejected) input, hence finite
	scale = math.Max(normA2, a.NormMax()/lambda)
	return lambda, mu, muBar, rho, tol, maxIter, normAF, scale, false
}

// DecomposeMasked solves RPCA with missing entries: given an observation
// mask Ω (mask cell > 0.5 ⇔ observed), it finds D low-rank and E sparse
// with P_Ω(A) = P_Ω(D + E), leaving the unobserved entries of A free. This
// is the IALM iteration with missing-entry projection: each round the
// unobserved entries of the working matrix are refreshed from the current
// D + E (so they exert no pull of their own), the sparse component is
// confined to Ω (no error term can live where nothing was measured), and
// the multiplier/residual updates only count observed entries.
//
// Calibrations with probe gaps use this instead of zero-filling: a zero
// bandwidth cell fed to the unmasked solver looks like an extreme outlier
// and corrupts the constant component, whereas the mask lets the low-rank
// structure interpolate the gap.
//
// A nil mask (or an all-ones mask) reduces to DecomposeIALM. The
// iteration runs over the solver's arena; the returned matrices are
// caller-owned.
func (s *Solver) DecomposeMasked(a, mask *mat.Dense, opts IALMOptions) (*Result, error) {
	if mask == nil {
		return s.DecomposeIALM(a, opts)
	}
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return nil, errors.New("rpca: empty matrix")
	}
	if mr, mc := mask.Dims(); mr != r || mc != c {
		return nil, fmt.Errorf("rpca: mask dims %dx%d != data %dx%d", mr, mc, r, c)
	}
	if err := checkFinite(a); err != nil {
		return nil, err
	}

	s.bind(r, c)
	ad, md := a.Data(), mask.Data()
	obsData := s.aObs.Data()
	nObs := 0
	for i := range obsData {
		if md[i] > 0.5 {
			s.obs[i] = true
			obsData[i] = ad[i]
			nObs++
		} else {
			s.obs[i] = false
			obsData[i] = 0
		}
	}
	if nObs == 0 {
		return nil, ErrEmptyMask
	}
	if nObs == r*c {
		return s.DecomposeIALM(a, opts)
	}

	lambda, mu, muBar, rho, tol, maxIter, normAF, scale, zero := ialmParams(s.aObs, opts)
	if zero {
		return &Result{D: mat.NewDense(r, c), E: mat.NewDense(r, c), Converged: true}, nil
	}

	s.e.Zero()
	s.d.Zero()
	s.y.CopyFrom(s.aObs)
	s.y.ScaleInPlace(1 / scale)
	s.fill.CopyFrom(s.aObs) // P_Ω(A) + P_Ωᶜ(D+E), refreshed per iteration
	it := ialmIter{s: s, a: s.fill, lambda: lambda, mu: mu, muBar: muBar, rho: rho, masked: true}

	res := &Result{}
	for k := 0; k < maxIter; k++ {
		if err := cancel.Check(opts.Ctx, "rpca.DecomposeMasked", k, maxIter); err != nil {
			return nil, err
		}
		resid, rank := it.step()
		res.Iterations = k + 1
		res.RankD = rank
		if resid <= tol*math.Max(1, normAF) {
			res.Converged = true
			break
		}
	}
	res.D = s.d.Clone()
	res.E = s.e.Clone()
	return res, nil
}
