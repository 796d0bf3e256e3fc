package mpi

import (
	"fmt"

	"netconstant/internal/mat"
)

// This file implements two round-structured collective algorithms of
// Thakur & Rabenseifner ("Optimization of collective communication
// operations in MPICH", the paper's reference [39]): ring allreduce
// (reduce-scatter + allgather) and pairwise-exchange all-to-all. They
// extend the tree collectives with schedules whose cost depends on the
// rank order, which ChainFromWeights picks from the weight matrix.

// transfer is one point-to-point message inside a round.
type transfer struct {
	src, dst int
	bytes    float64
}

// runRounds executes a schedule of synchronized rounds: all transfers of a
// round start together, and the next round begins when every transfer of
// the current round has completed (the barrier-synchronized model used for
// analyzing round-based collectives). Returns the elapsed time.
func runRounds(net Network, rounds [][]transfer) float64 {
	start := net.Now()
	var runRound func(r int)
	done := start
	runRound = func(r int) {
		if r >= len(rounds) {
			return
		}
		pending := len(rounds[r])
		if pending == 0 {
			runRound(r + 1)
			return
		}
		for _, t := range rounds[r] {
			net.Send(t.src, t.dst, t.bytes, func(at float64) {
				if at > done {
					done = at
				}
				pending--
				if pending == 0 {
					runRound(r + 1)
				}
			})
		}
	}
	runRound(0)
	net.Run()
	return done - start
}

// RingAllreduce implements the bandwidth-optimal ring allreduce:
// a reduce-scatter phase (n−1 rounds of one chunk each) followed by a ring
// allgather (another n−1 rounds). totalBytes is the full vector size; each
// round moves totalBytes/n per rank. Returns elapsed time.
func RingAllreduce(net Network, order []int, totalBytes float64) float64 {
	n := len(order)
	if n < 2 {
		return 0
	}
	chunk := totalBytes / float64(n)
	rounds := make([][]transfer, 0, 2*(n-1))
	for phase := 0; phase < 2; phase++ {
		for r := 0; r < n-1; r++ {
			round := make([]transfer, 0, n)
			for i := 0; i < n; i++ {
				round = append(round, transfer{src: order[i], dst: order[(i+1)%n], bytes: chunk})
			}
			rounds = append(rounds, round)
		}
	}
	return runRounds(net, rounds)
}

// PairwiseAlltoall implements the pairwise-exchange all-to-all: in round
// k (k = 1..n−1), rank i exchanges its dedicated chunk with rank
// (i + k) mod n. chunkBytes is the per-destination chunk size. Returns
// elapsed time.
func PairwiseAlltoall(net Network, order []int, chunkBytes float64) float64 {
	n := len(order)
	if n < 2 {
		return 0
	}
	rounds := make([][]transfer, n-1)
	for k := 1; k < n; k++ {
		round := make([]transfer, 0, n)
		for i := 0; i < n; i++ {
			round = append(round, transfer{src: order[i], dst: order[(i+k)%n], bytes: chunkBytes})
		}
		rounds[k-1] = round
	}
	return runRounds(net, rounds)
}

// ChainFromWeights orders ranks into a low-weight chain greedily: starting
// at root, repeatedly append the unvisited rank with the smallest weight
// from the current tail — the ring analogue of FNF.
func ChainFromWeights(w *mat.Dense, root int) []int {
	n := w.Rows()
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: chain root %d out of range", root))
	}
	chain := make([]int, 0, n)
	used := make([]bool, n)
	cur := root
	used[cur] = true
	chain = append(chain, cur)
	for len(chain) < n {
		best, bestW := -1, 0.0
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			if best < 0 || w.At(cur, v) < bestW {
				best, bestW = v, w.At(cur, v)
			}
		}
		used[best] = true
		chain = append(chain, best)
		cur = best
	}
	return chain
}
