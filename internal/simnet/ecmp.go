package simnet

// ECMP multi-path routing. Clos and fat-tree fabrics give most pairs many
// equal-cost shortest paths, so topo.Route/RouteE refuse them with
// topo.ErrMultiPath; the simulator resolves every pair itself with
// equal-cost multi-path hashing, the way data-center switches do:
//
//   - a breadth-first pass from the destination labels each node with its
//     hop distance, which makes the shortest-path DAG implicit (every
//     neighbor one hop closer is a legal next hop);
//   - the flow walks from the source choosing among the legal next hops
//     with a pure hash over (src, dst, current node) — no RNG, no global
//     state — so a pair's path depends only on the topology and the pair
//     ID. Results are therefore identical at any seed, worker count, or
//     flow arrival order, and unique-path topologies (trees) resolve to
//     exactly the path topo.Route returns.
//
// Like real per-destination ECMP, all flows of a pair share one path (the
// route cache in Sim.StartFlow keys on the pair), concentrating a pair's
// probes on the same links while spreading distinct pairs across the
// fabric.

import (
	"fmt"

	"netconstant/internal/topo"
)

// mix64 is the splitmix64 finalizer — the same avalanche construction the
// experiment harness uses for PointSeed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pairHash is the pure per-pair hash seeding the next-hop choices.
func pairHash(src, dst int) uint64 {
	return mix64(uint64(int64(src)<<32|int64(uint32(dst))) ^ 0x9e3779b97f4a7c15)
}

// routeFor computes the (src, dst) path: the unique shortest path when
// there is one, otherwise the ECMP-hashed choice among the equal-cost
// shortest paths. multi reports whether any hop had more than one legal
// next hop. BFS scratch lives on the Sim (routing runs on the single
// event-loop goroutine), so steady-state routing of a cached pair set
// allocates only the returned path.
//
//netlint:hotpath
func (s *Sim) routeFor(src, dst int) (path []topo.LinkID, multi bool, err error) {
	t := s.Topo
	n := t.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		//netlint:allow hotalloc error construction sits on the invalid-endpoint path, never on steady-state routing
		return nil, false, fmt.Errorf("%w: route endpoints (%d,%d), %d nodes", topo.ErrNodeRange, src, dst, n)
	}
	if len(s.ecmpDist) < n {
		//netlint:allow hotalloc BFS scratch grows once per topology size, then is reused for every routed pair
		s.ecmpDist = make([]int32, n)
		//netlint:allow hotalloc BFS scratch grows once per topology size, then is reused for every routed pair
		s.ecmpQueue = make([]int32, 0, n)
	}
	dist := s.ecmpDist[:n]
	for i := range dist {
		dist[i] = -1
	}
	// BFS from dst. Nodes dequeue in nondecreasing distance, so once the
	// frontier reaches dist[src] every node at distance <= dist[src] — all
	// the walk below can touch — is labeled, and the scan can stop.
	queue := s.ecmpQueue[:0]
	dist[dst] = 0
	queue = append(queue, int32(dst))
	for head := 0; head < len(queue); head++ {
		cur := int(queue[head])
		if dist[src] >= 0 && dist[cur] >= dist[src] {
			break
		}
		for _, e := range t.Incident(cur) {
			if dist[e.Peer] < 0 {
				dist[e.Peer] = dist[cur] + 1
				queue = append(queue, int32(e.Peer))
			}
		}
	}
	s.ecmpQueue = queue[:0]
	if dist[src] < 0 {
		//netlint:allow hotalloc error construction sits on the disconnected-pair path, never on steady-state routing
		return nil, false, fmt.Errorf("%w: from %d to %d", topo.ErrNoPath, src, dst)
	}
	// Hash-walk the shortest-path DAG toward dst.
	h := pairHash(src, dst)
	//netlint:allow hotalloc the returned path is the one by-design allocation (see doc comment); StartFlow caches it per pair
	path = make([]topo.LinkID, 0, dist[src])
	for cur := src; cur != dst; {
		d := dist[cur]
		cands := s.ecmpCands[:0]
		for _, e := range t.Incident(cur) {
			if dist[e.Peer] == d-1 {
				cands = append(cands, e)
			}
		}
		s.ecmpCands = cands[:0]
		pick := 0
		if len(cands) > 1 {
			multi = true
			pick = int(mix64(h^uint64(cur)*0x9e3779b97f4a7c15) % uint64(len(cands)))
		}
		path = append(path, cands[pick].Link)
		cur = cands[pick].Peer
	}
	return path, multi, nil
}

// ECMPPairs reports how many (src, dst) pairs have been routed so far and
// how many of them resolved over a multi-path portion of the fabric.
func (s *Sim) ECMPPairs() (total, multipath int) {
	return len(s.routes), s.multiPairs
}
