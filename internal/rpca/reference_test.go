package rpca

import (
	"errors"
	"math"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// decomposeFullSVT is the reference APG implementation the arena solver
// is cross-checked against: it allocates every intermediate per
// iteration and computes a full SVD per SVT, exactly as the solver did
// before the arena/truncated-SVT rewrite.
func decomposeFullSVT(a *mat.Dense, opts Options) (*Result, error) {
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

	normA := a.NormFrobenius()
	d := mat.NewDense(r, c)
	e := mat.NewDense(r, c)
	dPrev := mat.NewDense(r, c)
	ePrev := mat.NewDense(r, c)
	t, tPrev := 1.0, 1.0

	res := &Result{}
	for k := 0; k < maxIter; k++ {
		if err := cancel.Check(opts.Ctx, "rpca.decomposeFullSVT", k, maxIter); err != nil {
			return nil, err
		}
		// Momentum extrapolation Y = X_k + ((t_{k-1}-1)/t_k)(X_k - X_{k-1}).
		beta := (tPrev - 1) / t
		yd := momentum(d, dPrev, beta)
		ye := momentum(e, ePrev, beta)

		// Gradient of ½‖A − D − E‖F² w.r.t. (D, E) is (D+E−A, D+E−A);
		// with Lipschitz constant 2 the step is −½·grad.
		g := yd.Add(ye)
		g.SubInPlace(a) // g = Y_D + Y_E − A

		gd := yd.Sub(g.Scale(0.5))
		dNext, rank := gd.SVT(mu / 2)

		ge := ye.Sub(g.Scale(0.5))
		eNext := ge.SoftThreshold(lambda * mu / 2)

		// Convergence: relative change of the iterate pair.
		num := dNext.Sub(d).NormFrobenius() + eNext.Sub(e).NormFrobenius()
		den := math.Max(1, normA)

		dPrev, d = d, dNext
		ePrev, e = e, eNext
		tPrev, t = t, (1+math.Sqrt(1+4*t*t))/2
		//netlint:allow floatsafe mu and eta are solver constants and muBar derives from norms of the entry-validated (NaN/Inf-rejected) input
		mu = math.Max(eta*mu, muBar)

		res.Iterations = k + 1
		res.RankD = rank
		if num/den < tol {
			res.Converged = true
			break
		}
	}
	res.D = d
	res.E = e
	return res, nil
}

func momentum(cur, prev *mat.Dense, beta float64) *mat.Dense {
	if beta == 0 {
		return cur.Clone()
	}
	out := cur.Sub(prev)
	out.ScaleInPlace(beta)
	out.AddInPlace(cur)
	return out
}
