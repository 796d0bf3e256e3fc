package cloud

import (
	"testing"

	"netconstant/internal/mat"
	"netconstant/internal/topo"
)

// TestSimClusterSweepMatchesGlobalFill runs a calibration sweep on the
// quick 8×8 tree cluster (10 VMs, 16 hot-rack background sources, 1 MB
// probes) with the simulator's differential oracle armed: after every
// flow arrival and departure, each active flow's incremental rate must
// equal a fresh whole-network fill bit for bit.
func TestSimClusterSweepMatchesGlobalFill(t *testing.T) {
	sc := NewSimCluster(SimClusterConfig{
		Tree: topo.TreeConfig{
			Racks:          8,
			ServersPerRack: 8,
			IntraRackBps:   1e9 / 8,
			InterRackBps:   2e9 / 8,
		},
		VMs:       10,
		Seed:      42,
		BgLinks:   16,
		BgBytes:   64 << 20,
		BgLambda:  1,
		HotRacks:  4,
		ProbeBulk: 1 << 20,
	})
	defer sc.StopBackground()
	sc.Sim.SetVerifyGlobal(true)
	SnapshotTP(sc, 2, 5)
	if err := sc.Sim.VerifyError(); err != nil {
		t.Fatal(err)
	}
	if sc.Sim.ActiveFlows() == 0 {
		t.Fatal("no background traffic in flight: the oracle checked an idle network")
	}
}

// TestSimClusterClosRefillAcrossWorkers builds a 4096-machine ECMP Clos
// cluster, warms its background traffic to steady state, and refills the
// whole network at 1, 2 and 8 workers: the component-sharded fill must
// give the same rate fingerprint at every worker count and agree bit for
// bit with the whole-network reference fill.
func TestSimClusterClosRefillAcrossWorkers(t *testing.T) {
	fabric, err := topo.NewClosE(topo.ClosShape(4096))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSimCluster(SimClusterConfig{
		Topo:      fabric,
		VMs:       16,
		Seed:      42,
		BgLinks:   4096 / 16,
		BgBytes:   32 << 20,
		BgLambda:  1,
		ProbeBulk: 1 << 20,
	})
	defer sc.StopBackground()
	sc.AdvanceTime(2)
	s := sc.Sim
	for n := 0; n < 2000 && s.Eng.Step(); n++ {
	}
	if _, multi := s.ECMPPairs(); multi == 0 {
		t.Fatal("no multipath pairs on a Clos fabric")
	}

	var want uint64
	for i, workers := range []int{1, 2, 8} {
		old := mat.SetParallelism(workers)
		comps, flows := s.RefillAll()
		fp := s.RateFingerprint()
		mat.SetParallelism(old)
		// The parallel dispatch needs >= 2 components and >= 64 flows.
		if comps < 2 || flows < 64 {
			t.Fatalf("workers %d: refill saw %d components, %d flows; too small for the parallel shards", workers, comps, flows)
		}
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("rate fingerprint at %d workers %#x != %#x at 1 worker", workers, fp, want)
		}
	}
	s.SetVerifyGlobal(true)
	s.RefillAll()
	if err := s.VerifyError(); err != nil {
		t.Fatalf("sharded fill diverged from the whole-network fill: %v", err)
	}
	if fp := s.RateFingerprint(); fp != want {
		t.Fatalf("verified refill moved the fingerprint: %#x != %#x", fp, want)
	}
}
