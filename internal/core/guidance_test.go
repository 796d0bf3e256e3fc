package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"netconstant/internal/mpi"
	"netconstant/internal/stats"
)

// TestGuidanceCapturesImmutableState pins what hosts that share a
// captured Guidance rely on: before calibration every strategy plans as
// Baseline; a captured Guidance compares equal until the guidance
// changes; and a later calibration replaces the matrices without
// touching the ones an earlier capture still points at.
func TestGuidanceCapturesImmutableState(t *testing.T) {
	p, vc := testCluster(t, 8, 31)
	adv := NewAdvisor(vc, stats.NewRNG(4), AdvisorConfig{})
	g0 := adv.Guidance()
	if g0.Calibrated || g0.N != 8 {
		t.Fatalf("fresh guidance = %+v", g0)
	}
	bin := mpi.BinomialTree(8, 2)
	for _, s := range []Strategy{Baseline, Heuristics, RPCA, TopologyAware} {
		if eff := g0.EffectiveStrategy(s); eff != Baseline {
			t.Errorf("%v before calibration plans as %v, want Baseline", s, eff)
		}
		if tr := g0.PlanTree(s, 2, 1<<20, p.Topo, vc.Hosts); !slices.Equal(tr.Parent, bin.Parent) {
			t.Errorf("%v before calibration planned %v, want binomial %v", s, tr.Parent, bin.Parent)
		}
	}
	if !math.IsNaN(g0.ExpectedTime(bin, mpi.Broadcast, 1<<20)) {
		t.Error("expected time before calibration should be NaN")
	}

	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	g1 := adv.Guidance()
	if g1 == g0 || !g1.Calibrated || g1.Constant == nil {
		t.Fatalf("calibrated guidance = %+v", g1)
	}
	// An observation below both triggers leaves the guidance equal.
	if trig, err := adv.ObserveCtx(context.Background(), 1, 1.01); err != nil || trig {
		t.Fatalf("quiet observe: triggered %v, err %v", trig, err)
	}
	if adv.Guidance() != g1 {
		t.Fatal("a quiet observe changed the guidance")
	}
	// The advisor's own methods are the Guidance's.
	tree := adv.PlanTree(RPCA, 0, 1<<20, nil, nil)
	if !slices.Equal(tree.Parent, g1.PlanTree(RPCA, 0, 1<<20, nil, nil).Parent) {
		t.Fatal("Advisor.PlanTree disagrees with Guidance.PlanTree")
	}
	if a, b := adv.ExpectedTime(tree, mpi.Broadcast, 1<<20), g1.ExpectedTime(tree, mpi.Broadcast, 1<<20); a != b {
		t.Fatalf("Advisor.ExpectedTime %v, Guidance.ExpectedTime %v", a, b)
	}

	lat := slices.Clone(g1.Constant.Latency.Data())
	bw := slices.Clone(g1.Constant.Bandwth.Data())
	heur := slices.Clone(g1.Heuristic.Bandwth.Data())
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := adv.BeginStreamingCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := adv.PartialResolve(); err != nil {
		t.Fatal(err)
	}
	if adv.Guidance() == g1 {
		t.Fatal("recalibration left the guidance equal")
	}
	if !slices.Equal(lat, g1.Constant.Latency.Data()) || !slices.Equal(bw, g1.Constant.Bandwth.Data()) ||
		!slices.Equal(heur, g1.Heuristic.Bandwth.Data()) {
		t.Fatal("a later analysis mutated matrices an earlier Guidance still holds")
	}
}
