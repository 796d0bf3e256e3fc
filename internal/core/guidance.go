package core

import (
	"math"

	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/topo"
)

// Guidance is the part of an Advisor's state that planning reads: the
// constant component and its companions as of the last calibration or
// partial re-solve. It is a small comparable value, so a host that serves
// many plans from one guidance (the advisor daemon) can capture it once,
// share it across goroutines, and tell with == whether a later state
// change left it equal.
//
// Sharing the matrix pointers is safe because analyze() and
// PartialResolve() install freshly assembled matrices and never mutate an
// installed one in place: a captured Guidance stays valid, unchanged,
// after the Advisor moves on.
type Guidance struct {
	// N is the cluster size.
	N int
	// Calibrated reports whether any calibration has been analyzed.
	Calibrated bool
	// Health is the measurement health of the last analysis.
	Health CalibrationHealth
	// NormE is Norm(N_E) of the last analysis.
	NormE float64
	// Constant is the RPCA constant component (nil before calibration).
	Constant *netmodel.PerfMatrix
	// Heuristic is the Heuristics strategy's direct-use estimate.
	Heuristic *netmodel.PerfMatrix
}

// Guidance captures the advisor's current guidance.
func (a *Advisor) Guidance() Guidance {
	return Guidance{
		N:          a.cluster.Size(),
		Calibrated: a.lastCal != nil,
		Health:     a.health,
		NormE:      a.normE,
		Constant:   a.constant,
		Heuristic:  a.heuristic,
	}
}

// EffectiveStrategy maps the requested strategy through the confidence
// fallback ladder: RPCA degrades to Heuristics and then Baseline as the
// calibration health drops, so a damaged calibration can never steer the
// collective with a constant component it does not actually support.
// Before the first calibration there is no guidance at all and the
// ladder bottoms out at Baseline.
func (g Guidance) EffectiveStrategy(s Strategy) Strategy {
	if !g.Calibrated {
		return Baseline
	}
	return FallbackStrategy(s, g.Health.Confidence)
}

// Perf returns the performance matrix a strategy plans with (nil for
// strategies that do not use measurements).
func (g Guidance) Perf(s Strategy) *netmodel.PerfMatrix {
	switch s {
	case RPCA:
		return g.Constant
	case Heuristics:
		return g.Heuristic
	default:
		return nil
	}
}

// PlanTree builds the communication tree a strategy would use for a
// collective rooted at root with the given message size, after the
// fallback ladder (EffectiveStrategy). dc and hosts are only consulted by
// TopologyAware (and may be nil otherwise).
func (g Guidance) PlanTree(s Strategy, root int, msgBytes float64, dc *topo.Topology, hosts []int) *mpi.Tree {
	switch s = g.EffectiveStrategy(s); s {
	case RPCA, Heuristics:
		perf := g.Perf(s)
		if perf == nil {
			return mpi.BinomialTree(g.N, root)
		}
		return mpi.FNFTree(perf.Weights(msgBytes), root)
	case TopologyAware:
		if dc == nil || hosts == nil {
			return mpi.BinomialTree(g.N, root)
		}
		return mpi.TopologyAwareTree(dc, hosts, root)
	default:
		return mpi.BinomialTree(g.N, root)
	}
}

// ExpectedTime estimates the collective's duration under the constant
// component — the expected performance t′ of Algorithm 1 line 5, using
// the α-β model so it extends to any message size. NaN before the first
// calibration.
func (g Guidance) ExpectedTime(t *mpi.Tree, op mpi.Collective, msgBytes float64) float64 {
	if g.Constant == nil {
		return math.NaN()
	}
	return mpi.RunCollective(mpi.NewAnalyticNet(g.Constant), t, op, msgBytes)
}
