package topo

import "errors"

// Sentinel errors for the fallible topology APIs (AddLinkE, RouteE,
// NewClosE, NewFatTreeE). Test for them with errors.Is.
var (
	// ErrNodeRange: a node index is outside [0, NumNodes).
	ErrNodeRange = errors.New("topo: node index out of range")
	// ErrSelfLink: both link endpoints name the same node.
	ErrSelfLink = errors.New("topo: self link")
	// ErrBadCapacity: a link capacity is zero, negative or not finite.
	ErrBadCapacity = errors.New("topo: capacity not positive and finite")
	// ErrBadLatency: a link latency is negative or not finite.
	ErrBadLatency = errors.New("topo: latency negative or not finite")
	// ErrNoPath: the endpoints are disconnected.
	ErrNoPath = errors.New("topo: no path between nodes")
	// ErrMultiPath: RouteE was asked for "the" shortest path between
	// a pair that has several equal-cost shortest paths (Clos and fat-tree
	// fabrics). The single-route assumption does not hold there; use an
	// ECMP-aware router (simnet resolves multi-path pairs with a pure hash
	// over the pair ID) instead of silently picking an arbitrary path.
	ErrMultiPath = errors.New("topo: multiple equal-cost shortest paths")
	// ErrBadShape: a topology builder (NewClosE, NewFatTreeE) was given an
	// invalid shape parameter.
	ErrBadShape = errors.New("topo: invalid topology shape")
)
