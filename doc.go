// Package netconstant reproduces "Finding Constant From Change: Revisiting
// Network Performance Aware Optimizations on IaaS Clouds" (Gong, He, Li —
// SC 2014) as a self-contained Go library.
//
// The paper's idea: on IaaS clouds the network topology is hidden and
// single measurements are unreliable, so decouple the *constant component*
// of pair-wise network performance from its dynamic error with Robust
// Principal Component Analysis (RPCA), guide classical network-aware
// optimizations (FNF communication trees, greedy topology mapping) with
// the constant component, and use the relative error norm Norm(N_E) to
// decide whether such optimization is worthwhile at all.
//
// This root package is a facade over the implementation packages:
//
//   - internal/rpca — the APG RPCA solver and constant-row extraction
//   - internal/core — the Advisor (the paper's Algorithm 1) and strategies
//   - internal/cloud — the synthetic IaaS substrate, calibration, traces
//   - internal/mpi — communication trees and collective operations
//   - internal/mapping — topology mapping
//   - internal/apps — the N-body and CG applications
//   - internal/simnet, internal/topo — the flow-level network simulator
//   - internal/exp — one function per figure of the paper's evaluation
//
// The typical pipeline:
//
//	provider := netconstant.NewProvider(netconstant.ProviderConfig{Seed: 1})
//	cluster, err := provider.Provision(16, 2)
//	adv := netconstant.NewAdvisor(cluster, rng, netconstant.AdvisorConfig{})
//	err = adv.CalibrateCtx(ctx)              // TP-matrix + RPCA
//	fmt.Println(adv.NormE())                 // effectiveness indicator
//	tree := adv.PlanTree(netconstant.RPCA, 0, 8<<20, nil, nil)
//
// See examples/ for seven runnable walkthroughs and DESIGN.md for the full
// system inventory and experiment index.
package netconstant

import (
	"math/rand"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/faults"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
)

// Re-exported core types: the paper's contribution.
type (
	// Advisor implements the paper's Algorithm 1 (calibrate → RPCA →
	// guide → monitor → re-calibrate).
	Advisor = core.Advisor
	// AdvisorConfig tunes the Advisor (zero value = paper defaults).
	AdvisorConfig = core.AdvisorConfig
	// Strategy selects a planning approach (Baseline/Heuristics/RPCA/
	// TopologyAware).
	Strategy = core.Strategy
	// Effectiveness grades Norm(N_E).
	Effectiveness = core.Effectiveness
	// CalibrationHealth summarizes measurement quality (coverage, outlier
	// rate, retry exhaustion) of a calibration.
	CalibrationHealth = core.CalibrationHealth
	// Confidence grades how much the advisor trusts its own guidance.
	Confidence = core.Confidence
)

// Re-exported fault-injection types (see internal/faults).
type (
	// FaultScenario configures seeded fault injection for a wrapped
	// cluster.
	FaultScenario = faults.Scenario
	// FaultCluster wraps any Cluster with the scenario's injectors.
	FaultCluster = faults.Cluster
	// Blackout is a timed outage of a set of VMs.
	Blackout = faults.Blackout
)

// Confidence grades, re-exported.
const (
	ConfidenceNone    = core.ConfidenceNone
	ConfidenceLow     = core.ConfidenceLow
	ConfidenceReduced = core.ConfidenceReduced
	ConfidenceHigh    = core.ConfidenceHigh
)

// WrapFaults wraps a cluster with a deterministic fault scenario.
func WrapFaults(c Cluster, sc FaultScenario) *FaultCluster { return faults.Wrap(c, sc) }

// Re-exported substrate types.
type (
	// Provider is the synthetic IaaS data center.
	Provider = cloud.Provider
	// ProviderConfig parameterizes the provider.
	ProviderConfig = cloud.ProviderConfig
	// VirtualCluster is a provisioned set of VMs.
	VirtualCluster = cloud.VirtualCluster
	// Cluster is the measurement interface shared by synthetic, replayed
	// and simulated clusters.
	Cluster = cloud.Cluster
	// Link is the α-β model of one directed pair.
	Link = netmodel.Link
	// PerfMatrix is an all-link performance snapshot.
	PerfMatrix = netmodel.PerfMatrix
	// TPMatrix is a temporal performance matrix.
	TPMatrix = netmodel.TPMatrix
	// Tree is a rooted communication tree.
	Tree = mpi.Tree
)

// Strategies, re-exported.
const (
	Baseline      = core.Baseline
	Heuristics    = core.Heuristics
	RPCA          = core.RPCA
	TopologyAware = core.TopologyAware
)

// NewProvider builds a synthetic IaaS data center.
func NewProvider(cfg ProviderConfig) *Provider { return cloud.NewProvider(cfg) }

// NewAdvisor binds the RPCA pipeline to a cluster.
func NewAdvisor(c Cluster, rng *rand.Rand, cfg AdvisorConfig) *Advisor {
	return core.NewAdvisor(c, rng, cfg)
}

// Decompose runs the APG RPCA solver on an arbitrary data matrix given as
// row-major rows; it returns the low-rank and sparse components as rows.
func Decompose(rows [][]float64) (lowRank, sparse [][]float64, err error) {
	a := matFromRows(rows)
	res, err := rpca.NewSolver().Decompose(a, rpca.Options{})
	if err != nil {
		return nil, nil, err
	}
	return matToRows(res.D), matToRows(res.E), nil
}
