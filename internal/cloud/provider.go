// Package cloud is the repository's substitute for Amazon EC2 (DESIGN.md
// §2): a synthetic IaaS model in which virtual machines are placed on a
// simulated multi-rack data center and every VM pair has a *ground-truth
// constant* network performance (determined by placement, oversubscription
// and per-VM virtualization overhead) overlaid with dynamics — band-like
// volatility, sparse interference spikes, and rare regime changes caused
// by VM migration.
//
// Because the ground truth is known, the package can both generate
// realistic temporal performance matrices for the RPCA pipeline and verify
// recovery accuracy — something the paper could only approximate on the
// real cloud.
package cloud

import (
	"fmt"
	"math/rand"

	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// ProviderConfig parameterizes the synthetic data center. The zero value
// selects defaults modelled after the paper's environment: a 32×32
// two-level tree, 8 VM slots per server, EC2-medium-like bandwidth around
// 40–90 MB/s, sub-millisecond latency, and mild dynamics yielding
// Norm(N_E) ≈ 0.1 (the paper's measured EC2 value, §V-D).
type ProviderConfig struct {
	Tree           topo.TreeConfig
	SlotsPerServer int
	Seed           int64

	// Constant-component heterogeneity.
	BaseLatency      float64 // seconds, same-rack one-way
	CrossRackLatency float64 // seconds added per cross-rack pair
	LatencyJitter    float64 // relative per-pair latency spread
	VirtFactorMin    float64 // per-VM bandwidth multiplier lower bound
	VirtFactorMax    float64 // per-VM bandwidth multiplier upper bound
	CrossRackMin     float64 // cross-rack oversubscription multiplier bounds
	CrossRackMax     float64
	PairJitter       float64 // relative per-pair bandwidth spread

	// Dynamics.
	Volatility    float64 // relative std of the per-measurement band noise
	SpikeProb     float64 // probability a measurement is hit by interference
	SpikeAmp      float64 // max relative slowdown of a spike
	MigrationRate float64 // expected VM migrations per VM per day
}

func (c *ProviderConfig) applyDefaults() {
	if c.SlotsPerServer == 0 {
		c.SlotsPerServer = 8
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 250e-6
	}
	if c.CrossRackLatency == 0 {
		c.CrossRackLatency = 200e-6
	}
	if c.LatencyJitter == 0 {
		c.LatencyJitter = 0.15
	}
	if c.VirtFactorMin == 0 {
		c.VirtFactorMin = 0.45
	}
	if c.VirtFactorMax == 0 {
		c.VirtFactorMax = 0.95
	}
	if c.CrossRackMin == 0 {
		c.CrossRackMin = 0.3
	}
	if c.CrossRackMax == 0 {
		c.CrossRackMax = 0.8
	}
	if c.PairJitter == 0 {
		c.PairJitter = 0.1
	}
	if c.Volatility == 0 {
		c.Volatility = 0.04
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.05
	}
	if c.SpikeAmp == 0 {
		c.SpikeAmp = 1.5
	}
	if c.MigrationRate == 0 {
		c.MigrationRate = 0.4 // ~3 regime changes per week for a large cluster's hot pairs
	}
}

// Provider is a synthetic IaaS data center that can provision virtual
// clusters.
type Provider struct {
	Topo *topo.Topology
	cfg  ProviderConfig
	src  *stats.CountingSource
	rng  *rand.Rand // draws from src

	used    map[int]int // server node -> occupied slots
	servers []int
	// crossFactor memoizes the oversubscription multiplier per rack pair so
	// that it is a stable property of the data center, not of the cluster.
	crossFactor map[[2]int]float64
}

// NewProvider builds the data center described by cfg.
func NewProvider(cfg ProviderConfig) *Provider {
	cfg.applyDefaults()
	t := topo.NewTree(cfg.Tree)
	src := stats.NewCountingSource(cfg.Seed)
	return &Provider{
		Topo:        t,
		cfg:         cfg,
		src:         src,
		rng:         rand.New(src),
		used:        make(map[int]int),
		servers:     t.Servers(),
		crossFactor: make(map[[2]int]float64),
	}
}

// rackPairFactor returns the stable oversubscription multiplier for a rack
// pair, drawing it on first use.
func (p *Provider) rackPairFactor(r1, r2 int) float64 {
	if r1 == r2 {
		return 1
	}
	key := [2]int{min(r1, r2), max(r1, r2)}
	if f, ok := p.crossFactor[key]; ok {
		return f
	}
	f := stats.Uniform(p.rng, p.cfg.CrossRackMin, p.cfg.CrossRackMax)
	p.crossFactor[key] = f
	return f
}

// Provision places n VMs on servers with free slots, chosen uniformly at
// random (modelling the provider's opaque placement policy), and returns
// the virtual cluster. seed controls the cluster's own dynamics stream.
func (p *Provider) Provision(n int, seed int64) (*VirtualCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cloud: invalid cluster size %d", n)
	}
	free := 0
	for _, s := range p.servers {
		free += p.cfg.SlotsPerServer - p.used[s]
	}
	if n > free {
		return nil, fmt.Errorf("cloud: capacity exhausted: want %d VMs, %d slots free", n, free)
	}
	hosts := make([]int, n)
	for i := 0; i < n; i++ {
		for {
			s := p.servers[p.rng.Intn(len(p.servers))]
			if p.used[s] < p.cfg.SlotsPerServer {
				p.used[s]++
				hosts[i] = s
				break
			}
		}
	}
	vc := newVirtualCluster(p, hosts, seed)
	return vc, nil
}
