// Package mapping implements the paper's second basic workload (§II-C):
// generic topology mapping. A weighted task graph (edge weight = data
// volume to transfer) is assigned onto a machine graph (edge weight =
// network bandwidth) so that heavy communication lands on fast links. The
// paper compares the Greedy Heuristic of Hoefler & Snir against a ring
// mapping baseline, with the machine graph built from either direct
// measurements (Heuristics), the RPCA constant component (RPCA), or
// nothing (Baseline).
package mapping

import (
	"fmt"
	"math/rand"
	"sort"

	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
)

// Graph is a weighted undirected graph over n vertices stored as a dense
// symmetric weight matrix; weight 0 means no edge.
type Graph struct {
	N int
	W *mat.Dense
}

// NewGraph allocates an empty graph.
func NewGraph(n int) *Graph {
	return &Graph{N: n, W: mat.NewDense(n, n)}
}

// SetEdge assigns the symmetric edge weight.
func (g *Graph) SetEdge(i, j int, w float64) {
	if i == j {
		panic("mapping: self edge")
	}
	g.W.Set(i, j, w)
	g.W.Set(j, i, w)
}

// Edge returns the edge weight (0 if absent).
func (g *Graph) Edge(i, j int) float64 { return g.W.At(i, j) }

// VertexWeight is the sum of the weights of all edges incident to v — the
// "weight of a vertex" used by the greedy heuristic.
func (g *Graph) VertexWeight(v int) float64 {
	var s float64
	for j := 0; j < g.N; j++ {
		s += g.W.At(v, j)
	}
	return s
}

// RandomTaskGraph generates the paper's topology-mapping workload: a
// connected random task graph with edge data volumes drawn uniformly from
// [minVol, maxVol] (5–10 MB in the paper) and the given extra edge
// density beyond a connecting ring.
func RandomTaskGraph(rng *rand.Rand, n int, density, minVol, maxVol float64) *Graph {
	g := NewGraph(n)
	if n < 2 {
		return g
	}
	// A ring guarantees connectivity.
	for i := 0; i < n; i++ {
		g.SetEdge(i, (i+1)%n, stats.Uniform(rng, minVol, maxVol))
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if i == 0 && j == n-1 {
				continue // ring edge already present
			}
			if rng.Float64() < density {
				g.SetEdge(i, j, stats.Uniform(rng, minVol, maxVol))
			}
		}
	}
	return g
}

// MachineGraphFromPerf builds the machine graph H from a performance
// matrix: edge weight is the average of the two directed bandwidths
// (bigger = better connectivity).
func MachineGraphFromPerf(perf *netmodel.PerfMatrix) *Graph {
	g := NewGraph(perf.N)
	for i := 0; i < perf.N; i++ {
		for j := i + 1; j < perf.N; j++ {
			bw := 0.5 * (perf.Bandwth.At(i, j) + perf.Bandwth.At(j, i))
			g.SetEdge(i, j, bw)
		}
	}
	return g
}

// RingMapping is the baseline: task i runs on machine i (§V-A,
// "maps each vertex in the task graph to a vertex in the machine graph one
// by one like a ring").
func RingMapping(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// GreedyMapE implements the Greedy Heuristic Algorithm of Hoefler & Snir
// as described in §II-C: start at the heaviest machine vertex, map it to
// the heaviest task vertex, then repeatedly map the heaviest unmapped
// machine neighbours of already-mapped machines to the task neighbours
// with the heaviest connections. It returns assign[task] = machine. The
// two graphs must have equal order; the error wraps ErrGraphMismatch.
func GreedyMapE(task, machine *Graph) ([]int, error) {
	if task.N != machine.N {
		return nil, fmt.Errorf("%w: %d vs %d", ErrGraphMismatch, task.N, machine.N)
	}
	n := task.N
	assign := make([]int, n) // task -> machine
	for i := range assign {
		assign[i] = -1
	}
	machineTask := make([]int, n) // machine -> task
	for i := range machineTask {
		machineTask[i] = -1
	}

	heaviest := func(g *Graph, used func(int) bool) int {
		best, bestW := -1, -1.0
		for v := 0; v < g.N; v++ {
			if used(v) {
				continue
			}
			if w := g.VertexWeight(v); w > bestW {
				best, bestW = v, w
			}
		}
		return best
	}

	v0 := heaviest(machine, func(int) bool { return false })
	s0 := heaviest(task, func(int) bool { return false })
	assign[s0] = v0
	machineTask[v0] = s0

	// Process mapped machine vertices in mapping order.
	queue := []int{v0}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		s := machineTask[v]
		// Unmapped machine neighbours of v, heaviest connection first.
		mn := neighboursByWeight(machine, v, func(u int) bool { return machineTask[u] != -1 })
		// Unmapped task neighbours of s, heaviest connection first.
		tn := neighboursByWeight(task, s, func(u int) bool { return assign[u] != -1 })
		k := 0
		for _, mu := range mn {
			var tu int
			if k < len(tn) {
				tu = tn[k]
				k++
			} else {
				// Task neighbours exhausted: take the globally heaviest
				// unmapped task so every machine still gets a distinct task.
				tu = heaviest(task, func(u int) bool { return assign[u] != -1 })
				if tu < 0 {
					break
				}
			}
			assign[tu] = mu
			machineTask[mu] = tu
			queue = append(queue, mu)
		}
	}

	// The machine graph may be disconnected (zero-bandwidth edges): sweep
	// up any leftovers deterministically.
	for s := 0; s < n; s++ {
		if assign[s] != -1 {
			continue
		}
		for v := 0; v < n; v++ {
			if machineTask[v] == -1 {
				assign[s] = v
				machineTask[v] = s
				break
			}
		}
	}
	return assign, nil
}

func neighboursByWeight(g *Graph, v int, skip func(int) bool) []int {
	type nw struct {
		u int
		w float64
	}
	var list []nw
	for u := 0; u < g.N; u++ {
		if u == v || skip(u) || g.W.At(v, u) <= 0 {
			continue
		}
		list = append(list, nw{u, g.W.At(v, u)})
	}
	sort.SliceStable(list, func(a, b int) bool { return list[a].w > list[b].w })
	out := make([]int, len(list))
	for i, e := range list {
		out[i] = e.u
	}
	return out
}

// CostE evaluates a mapping against actual link performance: every task
// edge (i, j) becomes a transfer of its data volume over the machine link
// (assign[i], assign[j]); each machine serializes its transfers
// (single-port), and the elapsed estimate is the busiest machine's total
// send time. It returns (elapsed, totalTransferTime). The error wraps
// ErrBadAssignment when assign is not one machine in [0, perf.N) per task.
func CostE(task *Graph, assign []int, perf *netmodel.PerfMatrix) (elapsed, total float64, err error) {
	if len(assign) != task.N {
		return 0, 0, fmt.Errorf("%w: assignment length %d, task order %d", ErrBadAssignment, len(assign), task.N)
	}
	for task, m := range assign {
		if m < 0 || m >= perf.N {
			return 0, 0, fmt.Errorf("%w: task %d assigned machine %d, %d machines", ErrBadAssignment, task, m, perf.N)
		}
	}
	perNode := make([]float64, perf.N)
	for i := 0; i < task.N; i++ {
		for j := i + 1; j < task.N; j++ {
			vol := task.Edge(i, j)
			if vol <= 0 {
				continue
			}
			mi, mj := assign[i], assign[j]
			if mi == mj {
				continue // co-located tasks communicate for free
			}
			t := perf.Link(mi, mj).TransferTime(vol)
			perNode[mi] += t
			total += t
		}
	}
	for _, t := range perNode {
		if t > elapsed {
			elapsed = t
		}
	}
	return elapsed, total, nil
}

// ValidatePermutation checks that assign is a bijection onto [0, n). The
// error wraps ErrBadAssignment.
func ValidatePermutation(assign []int) error {
	seen := make([]bool, len(assign))
	for task, m := range assign {
		if m < 0 || m >= len(assign) {
			return fmt.Errorf("%w: task %d assigned out-of-range machine %d", ErrBadAssignment, task, m)
		}
		if seen[m] {
			return fmt.Errorf("%w: machine %d assigned twice", ErrBadAssignment, m)
		}
		seen[m] = true
	}
	return nil
}
