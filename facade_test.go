package netconstant_test

import (
	"context"
	"math/rand"
	"testing"

	netconstant "netconstant"
)

func TestFacadePipeline(t *testing.T) {
	provider := netconstant.NewProvider(netconstant.ProviderConfig{Seed: 1})
	cluster, err := provider.Provision(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	adv := netconstant.NewAdvisor(cluster, rand.New(rand.NewSource(3)), netconstant.AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if adv.NormE() <= 0 {
		t.Error("NormE should be positive on a dynamic cluster")
	}
	tree := adv.PlanTree(netconstant.RPCA, 0, 8<<20, nil, nil)
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
	for _, s := range []netconstant.Strategy{netconstant.Baseline, netconstant.Heuristics, netconstant.RPCA, netconstant.TopologyAware} {
		if s.String() == "" {
			t.Error("strategy name")
		}
	}
}

func TestFacadeDecompose(t *testing.T) {
	// Rank-1 plus one spike: D must be near the rank-1 part, E must carry
	// the spike.
	rows := [][]float64{
		{10, 20, 30},
		{10, 20, 130}, // spike at (1,2)
		{10, 20, 30},
		{10, 20, 30},
	}
	d, e, err := netconstant.Decompose(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 4 || len(e) != 4 || len(d[0]) != 3 {
		t.Fatal("shape")
	}
	if e[1][2] < 50 {
		t.Errorf("sparse component should hold the spike, got %v", e[1][2])
	}
	if d[0][0] < 5 || d[0][0] > 15 {
		t.Errorf("low-rank component off: %v", d[0][0])
	}
	if _, _, err := netconstant.Decompose(nil); err == nil {
		t.Error("empty input should error")
	}
}
