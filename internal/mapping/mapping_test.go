package mapping

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"netconstant/internal/netmodel"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(3)
	g.SetEdge(0, 1, 5)
	if g.Edge(0, 1) != 5 || g.Edge(1, 0) != 5 {
		t.Error("symmetric edge")
	}
	if g.Edge(0, 2) != 0 {
		t.Error("missing edge")
	}
	if g.VertexWeight(0) != 5 {
		t.Error("vertex weight")
	}
	mustPanic(t, func() { g.SetEdge(1, 1, 2) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestRandomTaskGraphConnectivityAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomTaskGraph(rng, 12, 0.3, 5e6, 10e6)
	// Ring edges guarantee each vertex has degree >= 2.
	for v := 0; v < 12; v++ {
		deg := 0
		for u := 0; u < 12; u++ {
			w := g.Edge(v, u)
			if w != 0 {
				deg++
				if w < 5e6 || w > 10e6 {
					t.Fatalf("edge weight %v out of [5MB,10MB]", w)
				}
			}
		}
		if deg < 2 {
			t.Fatalf("vertex %d degree %d", v, deg)
		}
	}
	// Tiny graph edge case.
	if RandomTaskGraph(rng, 1, 0.5, 1, 2).VertexWeight(0) != 0 {
		t.Error("single-vertex graph should be empty")
	}
}

// heterogeneousPerf builds a cloud-like performance matrix with per-VM
// virtualization factors (beta_ij ∝ f_i·f_j), the structure the greedy
// heuristic's vertex-weight ordering exploits.
func heterogeneousPerf(rng *rand.Rand, n int) *netmodel.PerfMatrix {
	f := make([]float64, n)
	for i := range f {
		f[i] = 0.2 + 0.8*rng.Float64()
	}
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			jitter := 0.9 + 0.2*rng.Float64()
			pm.SetLink(i, j, netmodel.Link{Alpha: 1e-4, Beta: 100e6 * f[i] * f[j] * jitter})
		}
	}
	return pm
}

func TestMachineGraphFromPerf(t *testing.T) {
	pm := netmodel.NewPerfMatrix(2)
	pm.SetLink(0, 1, netmodel.Link{Alpha: 0, Beta: 10})
	pm.SetLink(1, 0, netmodel.Link{Alpha: 0, Beta: 20})
	g := MachineGraphFromPerf(pm)
	if g.Edge(0, 1) != 15 {
		t.Errorf("averaged bandwidth %v", g.Edge(0, 1))
	}
}

func TestRingMapping(t *testing.T) {
	m := RingMapping(4)
	for i := range m {
		if m[i] != i {
			t.Fatal("ring mapping should be identity")
		}
	}
	if err := ValidatePermutation(m); err != nil {
		t.Error(err)
	}
}

func TestGreedyMapIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		task := RandomTaskGraph(rng, n, 0.3, 5e6, 10e6)
		machine := MachineGraphFromPerf(heterogeneousPerf(rng, n))
		assign, err := GreedyMapE(task, machine)
		return err == nil && ValidatePermutation(assign) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMapStartsAtHeaviest(t *testing.T) {
	// Machine 2 has the best total bandwidth; task 1 has the most data.
	machine := NewGraph(3)
	machine.SetEdge(0, 1, 1)
	machine.SetEdge(0, 2, 10)
	machine.SetEdge(1, 2, 10)
	task := NewGraph(3)
	task.SetEdge(0, 1, 100)
	task.SetEdge(1, 2, 100)
	assign := mustGreedyMap(t, task, machine)
	if assign[1] != 2 {
		t.Errorf("heaviest task should map to heaviest machine: %v", assign)
	}
}

func TestGreedyMapMismatchPanics(t *testing.T) {
	if assign, err := GreedyMapE(NewGraph(2), NewGraph(3)); !errors.Is(err, ErrGraphMismatch) || assign != nil {
		t.Errorf("mismatch: assign %v, err %v", assign, err)
	}
}

// mustGreedyMap maps graphs of equal order.
func mustGreedyMap(t *testing.T, task, machine *Graph) []int {
	t.Helper()
	assign, err := GreedyMapE(task, machine)
	if err != nil {
		t.Fatal(err)
	}
	return assign
}

// mustCost costs a valid assignment.
func mustCost(t *testing.T, task *Graph, assign []int, perf *netmodel.PerfMatrix) (elapsed, total float64) {
	t.Helper()
	elapsed, total, err := CostE(task, assign, perf)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, total
}

func TestGreedyBeatsRingOnHeterogeneousNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ringSum, greedySum float64
	for trial := 0; trial < 20; trial++ {
		n := 16
		perf := heterogeneousPerf(rng, n)
		task := RandomTaskGraph(rng, n, 0.2, 5e6, 10e6)
		machine := MachineGraphFromPerf(perf)
		ringEl, _ := mustCost(t, task, RingMapping(n), perf)
		greedyEl, _ := mustCost(t, task, mustGreedyMap(t, task, machine), perf)
		ringSum += ringEl
		greedySum += greedyEl
	}
	if greedySum >= ringSum {
		t.Errorf("greedy %v should beat ring %v", greedySum, ringSum)
	}
}

func TestCostModel(t *testing.T) {
	// Two tasks exchanging 100 bytes over a 10 B/s link: elapsed 10+α.
	task := NewGraph(2)
	task.SetEdge(0, 1, 100)
	perf := netmodel.NewPerfMatrix(2)
	perf.SetLink(0, 1, netmodel.Link{Alpha: 1, Beta: 10})
	perf.SetLink(1, 0, netmodel.Link{Alpha: 1, Beta: 10})
	el, total := mustCost(t, task, []int{0, 1}, perf)
	if el != 11 || total != 11 {
		t.Errorf("cost %v/%v", el, total)
	}
	// Co-located tasks are free.
	el2, _ := mustCost(t, task, []int{0, 0}, perf)
	if el2 != 0 {
		t.Errorf("co-located cost %v", el2)
	}
	if _, _, err := CostE(task, []int{0}, perf); !errors.Is(err, ErrBadAssignment) {
		t.Errorf("short assignment err = %v", err)
	}
}

func TestValidatePermutationErrors(t *testing.T) {
	if ValidatePermutation([]int{0, 0}) == nil {
		t.Error("duplicate should fail")
	}
	if ValidatePermutation([]int{0, 5}) == nil {
		t.Error("out of range should fail")
	}
	if ValidatePermutation([]int{1, 0}) != nil {
		t.Error("valid permutation rejected")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	n := 10
	t1 := RandomTaskGraph(rng1, n, 0.3, 5e6, 10e6)
	t2 := RandomTaskGraph(rng2, n, 0.3, 5e6, 10e6)
	m1 := MachineGraphFromPerf(heterogeneousPerf(rng1, n))
	m2 := MachineGraphFromPerf(heterogeneousPerf(rng2, n))
	a1 := mustGreedyMap(t, t1, m1)
	a2 := mustGreedyMap(t, t2, m2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("greedy mapping not deterministic")
		}
	}
}

func TestTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	task := RandomTaskGraph(rng, 4, 0.5, 5e6, 1e7)
	machine := NewGraph(5)
	if _, err := GreedyMapE(task, machine); !errors.Is(err, ErrGraphMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, _, err := CostE(task, []int{0, 1}, netmodel.NewPerfMatrix(4)); !errors.Is(err, ErrBadAssignment) {
		t.Errorf("short assignment err = %v", err)
	}
	pair := NewGraph(2)
	pair.SetEdge(0, 1, 1e6)
	for _, assign := range [][]int{{0, 9}, {-1, 0}, {0, 4}} {
		if _, _, err := CostE(pair, assign, netmodel.NewPerfMatrix(4)); !errors.Is(err, ErrBadAssignment) {
			t.Errorf("out-of-range assignment %v err = %v", assign, err)
		}
	}
	if err := ValidatePermutation([]int{0, 0, 1}); !errors.Is(err, ErrBadAssignment) {
		t.Errorf("duplicate machine err = %v", err)
	}
	if err := ValidatePermutation([]int{0, 7, 1}); !errors.Is(err, ErrBadAssignment) {
		t.Errorf("range err = %v", err)
	}
	if err := ValidatePermutation([]int{2, 0, 1}); err != nil {
		t.Errorf("valid permutation err = %v", err)
	}
}
