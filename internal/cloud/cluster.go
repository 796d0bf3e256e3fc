package cloud

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
)

// Cluster is the abstraction the calibration and optimization layers work
// against: a set of VMs with time-varying pair-wise network performance.
// Implementations include the synthetic VirtualCluster, the trace-replay
// cluster, and the simnet-backed cluster.
type Cluster interface {
	// Size returns the number of VMs.
	Size() int
	// Now returns the cluster-local simulated time in seconds.
	Now() float64
	// AdvanceTime moves the cluster clock forward, letting dynamics
	// (volatility regime, migrations) evolve.
	AdvanceTime(dt float64)
	// PairPerf returns the instantaneous network performance of the
	// directed VM pair (i, j) — what a transfer started now experiences.
	PairPerf(i, j int) netmodel.Link
}

// VirtualCluster is a set of VMs provisioned on the synthetic provider.
// Each directed pair has a constant ground-truth α-β performance plus
// dynamics; migrations change the ground truth (the paper's "significant
// changes").
type VirtualCluster struct {
	provider *Provider
	Hosts    []int // server node per VM
	src      *stats.CountingSource
	rng      *rand.Rand // draws from src
	now      float64

	vmFactor []float64 // per-VM virtualization bandwidth multiplier
	pairBW   *mat.Dense
	pairLat  *mat.Dense

	migrations     int
	freezeDynamics bool
}

func newVirtualCluster(p *Provider, hosts []int, seed int64) *VirtualCluster {
	src := stats.NewCountingSource(seed ^ 0x5eed)
	vc := &VirtualCluster{
		provider: p,
		Hosts:    hosts,
		src:      src,
		rng:      rand.New(src),
		vmFactor: make([]float64, len(hosts)),
	}
	for i := range vc.vmFactor {
		vc.vmFactor[i] = stats.Uniform(vc.rng, p.cfg.VirtFactorMin, p.cfg.VirtFactorMax)
	}
	vc.rebuildGroundTruth()
	return vc
}

// rebuildGroundTruth derives the constant per-pair α-β parameters from the
// current placement and virtualization factors.
func (vc *VirtualCluster) rebuildGroundTruth() {
	n := len(vc.Hosts)
	if vc.pairBW == nil {
		vc.pairBW = mat.NewDense(n, n)
		vc.pairLat = mat.NewDense(n, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			vc.pairBW.Set(i, j, vc.groundTruthBW(i, j))
			vc.pairLat.Set(i, j, vc.groundTruthLat(i, j))
		}
	}
}

// pairRand returns a deterministic per-pair unit-interval value so that
// pair jitter is stable across migrations of *other* VMs.
func (vc *VirtualCluster) pairRand(i, j, salt int) float64 {
	h := uint64(i)*0x9E37_79B9 + uint64(j)*0x85EB_CA6B + uint64(salt)*0xC2B2_AE35
	h ^= h >> 33
	h *= 0xFF51_AFD7_ED55_8CCD
	h ^= h >> 33
	return float64(h%1_000_000) / 1_000_000
}

func (vc *VirtualCluster) groundTruthBW(i, j int) float64 {
	p := vc.provider
	hi, hj := vc.Hosts[i], vc.Hosts[j]
	path, err := p.Topo.RouteE(hi, hj)
	if err != nil {
		// Hosts are servers of the provider's own connected tree, where
		// every pair has one shortest path: an error is a broken program
		// invariant.
		panic(err)
	}
	base := p.Topo.BottleneckCapacity(path)
	if hi == hj {
		base = 4 * p.cfg.Tree.IntraRackBps // loop through the hypervisor switch
		if base == 0 {
			base = 4 * 1e9 / 8
		}
	}
	ri, rj := p.Topo.Node(hi).Rack, p.Topo.Node(hj).Rack
	f := p.rackPairFactor(ri, rj)
	jit := 1 + p.cfg.PairJitter*(2*vc.pairRand(i, j, 1)-1)
	return base * f * vc.vmFactor[i] * vc.vmFactor[j] * jit
}

func (vc *VirtualCluster) groundTruthLat(i, j int) float64 {
	p := vc.provider
	hi, hj := vc.Hosts[i], vc.Hosts[j]
	lat := p.cfg.BaseLatency
	if !p.Topo.SameRack(hi, hj) {
		lat += p.cfg.CrossRackLatency
	}
	jit := 1 + p.cfg.LatencyJitter*(2*vc.pairRand(i, j, 2)-1)
	return lat * jit
}

// Size returns the number of VMs.
func (vc *VirtualCluster) Size() int { return len(vc.Hosts) }

// Now returns the cluster-local clock.
func (vc *VirtualCluster) Now() float64 { return vc.now }

// SetFreezeDynamics disables volatility, spikes and migration when true —
// used by tests that need the pure constant component.
func (vc *VirtualCluster) SetFreezeDynamics(freeze bool) { vc.freezeDynamics = freeze }

// AdvanceTime moves the clock by dt seconds and stochastically triggers VM
// migrations at the configured rate.
func (vc *VirtualCluster) AdvanceTime(dt float64) {
	if dt < 0 {
		panic("cloud: negative time advance")
	}
	vc.now += dt
	if vc.freezeDynamics {
		return
	}
	perVMProb := vc.provider.cfg.MigrationRate * dt / 86400
	if perVMProb <= 0 {
		return
	}
	// A single migration check per call keeps cost linear in cluster size.
	for vm := range vc.Hosts {
		if stats.Bernoulli(vc.rng, perVMProb) {
			vc.migrate(vm)
		}
	}
}

// migrate re-places one VM on a random server and redraws its
// virtualization factor — the paper's "virtual machine is migrated to
// another rack" significant change.
func (vc *VirtualCluster) migrate(vm int) {
	p := vc.provider
	if p.used[vc.Hosts[vm]] > 0 {
		p.used[vc.Hosts[vm]]--
	}
	for {
		s := p.servers[vc.rng.Intn(len(p.servers))]
		if p.used[s] < p.cfg.SlotsPerServer {
			p.used[s]++
			vc.Hosts[vm] = s
			break
		}
	}
	vc.vmFactor[vm] = stats.Uniform(vc.rng, p.cfg.VirtFactorMin, p.cfg.VirtFactorMax)
	vc.rebuildGroundTruth()
	vc.migrations++
}

// PairPerf returns the instantaneous performance of the directed pair:
// ground truth perturbed by band volatility and occasional interference
// spikes.
func (vc *VirtualCluster) PairPerf(i, j int) netmodel.Link {
	if i == j {
		return netmodel.Link{Alpha: 0, Beta: math.Inf(1)}
	}
	bw := vc.pairBW.At(i, j)
	lat := vc.pairLat.At(i, j)
	if vc.freezeDynamics {
		return netmodel.Link{Alpha: lat, Beta: bw}
	}
	cfg := vc.provider.cfg
	bw *= clampPositive(1 + cfg.Volatility*vc.rng.NormFloat64())
	lat *= clampPositive(1 + cfg.Volatility*vc.rng.NormFloat64())
	if stats.Bernoulli(vc.rng, cfg.SpikeProb) {
		slow := 1 + cfg.SpikeAmp*vc.rng.Float64()
		bw /= slow
		lat *= slow
	}
	return netmodel.Link{Alpha: lat, Beta: bw}
}

// TruePerf returns the ground-truth constant performance matrix — the
// oracle the RPCA pipeline tries to recover. Only the synthetic cluster
// can provide this.
func (vc *VirtualCluster) TruePerf() *netmodel.PerfMatrix {
	n := vc.Size()
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pm.SetLink(i, j, netmodel.Link{Alpha: vc.pairLat.At(i, j), Beta: vc.pairBW.At(i, j)})
		}
	}
	return pm
}

// SnapshotPerf samples the instantaneous all-link performance — one
// performance matrix P_A(t) of paper §III.
func (vc *VirtualCluster) SnapshotPerf() *netmodel.PerfMatrix {
	n := vc.Size()
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pm.SetLink(i, j, vc.PairPerf(i, j))
		}
	}
	return pm
}

func clampPositive(x float64) float64 {
	if x < 0.05 {
		return 0.05
	}
	return x
}

func (vc *VirtualCluster) racksUsed() map[int]bool {
	out := make(map[int]bool)
	for _, h := range vc.Hosts {
		out[vc.provider.Topo.Node(h).Rack] = true
	}
	return out
}

// RackSpread returns the number of distinct racks hosting the cluster —
// larger clusters spread over more racks, which is why the paper sees
// bigger optimization gains at 196 instances than at 64 (Fig 8).
func (vc *VirtualCluster) RackSpread() int { return len(vc.racksUsed()) }

// ClusterState is a VirtualCluster's mutable state as plain values,
// together with the part of its provider that the cluster's dynamics
// move: everything later advances, migrations and measurements depend
// on. The ground-truth pair tables are not part of it; they are a
// function of the placement and factors and are rebuilt on restore.
// The provider's slot occupancy is not part of it either: for the only
// cluster of a provider it equals the count of Hosts per server.
type ClusterState struct {
	Now        float64
	Hosts      []int     // server node per VM
	VMFactor   []float64 // per-VM virtualization bandwidth multiplier
	Migrations int
	Draws      uint64 // steps the cluster's dynamics stream has taken

	ProviderDraws uint64           // steps the provider's stream has taken
	CrossRack     []RackPairFactor // the provider's drawn rack-pair factors, sorted by (R1, R2)
}

// RackPairFactor is one drawn cross-rack oversubscription multiplier.
type RackPairFactor struct {
	R1, R2 int // R1 < R2
	F      float64
}

// State copies out the cluster's state.
func (vc *VirtualCluster) State() ClusterState {
	p := vc.provider
	st := ClusterState{
		Now:           vc.now,
		Hosts:         append([]int(nil), vc.Hosts...),
		VMFactor:      append([]float64(nil), vc.vmFactor...),
		Migrations:    vc.migrations,
		Draws:         vc.src.Draws(),
		ProviderDraws: p.src.Draws(),
	}
	cross := make([]RackPairFactor, 0, len(p.crossFactor))
	for k, f := range p.crossFactor {
		cross = append(cross, RackPairFactor{R1: k[0], R2: k[1], F: f})
	}
	sort.Slice(cross, func(a, b int) bool {
		return cross[a].R1 < cross[b].R1 || (cross[a].R1 == cross[b].R1 && cross[a].R2 < cross[b].R2)
	})
	st.CrossRack = cross
	return st
}

// Restore installs a state State recorded into a cluster freshly
// provisioned with the same provider config, size and seed, and the only
// cluster of its provider. Both random streams are fast-forwarded to the
// recorded positions, so every later draw is bit-identical to the
// recording cluster's. It refuses a state that does not fit the cluster
// (size, hosts that are not servers of its data center, overfull
// servers, streams behind the fresh ones, rack-pair factors that are
// missing for the placement); the cluster is unchanged then.
func (vc *VirtualCluster) Restore(st ClusterState) error {
	p := vc.provider
	n := len(vc.Hosts)
	if len(st.Hosts) != n || len(st.VMFactor) != n {
		return fmt.Errorf("cloud: cluster state for %d/%d VMs, want %d", len(st.Hosts), len(st.VMFactor), n)
	}
	if st.Migrations < 0 || st.Draws < vc.src.Draws() || st.ProviderDraws < p.src.Draws() {
		return errors.New("cloud: cluster state behind a fresh provisioning")
	}
	occupied := 0
	for _, c := range p.used {
		occupied += c
	}
	if occupied != n {
		return errors.New("cloud: restore into a cluster that shares its provider")
	}
	isServer := make(map[int]bool, len(p.servers))
	racks := 0
	for _, s := range p.servers {
		isServer[s] = true
		racks = max(racks, p.Topo.Node(s).Rack+1)
	}
	used := make(map[int]int, n)
	for vm, h := range st.Hosts {
		if !isServer[h] {
			return fmt.Errorf("cloud: cluster state places VM %d on node %d, not a server", vm, h)
		}
		used[h]++
		if used[h] > p.cfg.SlotsPerServer {
			return fmt.Errorf("cloud: cluster state overfills server %d", h)
		}
	}
	cross := make(map[[2]int]float64, len(st.CrossRack))
	for _, rf := range st.CrossRack {
		if rf.R1 < 0 || rf.R1 >= rf.R2 || rf.R2 >= racks {
			return fmt.Errorf("cloud: cluster state rack pair (%d,%d) outside %d racks", rf.R1, rf.R2, racks)
		}
		cross[[2]int{rf.R1, rf.R2}] = rf.F
	}
	for _, hi := range st.Hosts {
		for _, hj := range st.Hosts {
			ri, rj := p.Topo.Node(hi).Rack, p.Topo.Node(hj).Rack
			if _, ok := cross[[2]int{min(ri, rj), max(ri, rj)}]; ri != rj && !ok {
				return fmt.Errorf("cloud: cluster state lacks the factor of rack pair (%d,%d)", ri, rj)
			}
		}
	}
	vc.now = st.Now
	copy(vc.Hosts, st.Hosts)
	copy(vc.vmFactor, st.VMFactor)
	vc.migrations = st.Migrations
	vc.src.Skip(st.Draws - vc.src.Draws())
	p.src.Skip(st.ProviderDraws - p.src.Draws())
	p.used = used
	p.crossFactor = cross
	vc.rebuildGroundTruth()
	return nil
}
