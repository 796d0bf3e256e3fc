package mpi

import (
	"math"
	"testing"

	"netconstant/internal/netmodel"
)

func ringOrderN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRingAllreduceTiming(t *testing.T) {
	// 2(n−1) rounds of total/n bytes each.
	n := 4
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := RingAllreduce(net, ringOrderN(n), 100)
	want := float64(2*(n-1)) * 100 / float64(n)
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("ring allreduce %v want %v", el, want)
	}
	if RingAllreduce(NewAnalyticNet(uniformPerf(1, 0, 1)), []int{0}, 5) != 0 {
		t.Error("single rank")
	}
}

func TestPairwiseAlltoallTiming(t *testing.T) {
	n := 5
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := PairwiseAlltoall(net, ringOrderN(n), 10)
	want := float64(n-1) * 10
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("pairwise alltoall %v want %v", el, want)
	}
}

func TestChainFromWeights(t *testing.T) {
	pm := uniformPerf(4, 0, 1)
	// Make 0->2 cheap, 2->3 cheap, 3->1 cheap.
	pm.SetLink(0, 2, netmodel.Link{Alpha: 0, Beta: 100})
	pm.SetLink(2, 3, netmodel.Link{Alpha: 0, Beta: 100})
	w := pm.Weights(100)
	chain := ChainFromWeights(w, 0)
	if chain[0] != 0 || chain[1] != 2 || chain[2] != 3 {
		t.Errorf("greedy chain %v", chain)
	}
	seen := map[int]bool{}
	for _, v := range chain {
		if seen[v] {
			t.Fatal("duplicate in chain")
		}
		seen[v] = true
	}
	mustPanic(t, func() { ChainFromWeights(w, 9) })
}

func TestRunRoundsEmptyRound(t *testing.T) {
	net := NewAnalyticNet(uniformPerf(2, 0, 1))
	el := runRounds(net, [][]transfer{{}, {{src: 0, dst: 1, bytes: 10}}})
	if math.Abs(el-10) > 1e-9 {
		t.Errorf("empty round handling: %v", el)
	}
}
