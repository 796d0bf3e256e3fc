package netmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netconstant/internal/mat"
)

func TestLinkTransferTime(t *testing.T) {
	l := Link{Alpha: 0.001, Beta: 1e6}
	if got := l.TransferTime(1e6); math.Abs(got-1.001) > 1e-12 {
		t.Errorf("transfer time %v", got)
	}
	if !math.IsInf(Link{Alpha: 1, Beta: 0}.TransferTime(10), 1) {
		t.Error("zero bandwidth should be infinite time")
	}
}

func TestPerfMatrixLinks(t *testing.T) {
	p := NewPerfMatrix(3)
	p.SetLink(0, 1, Link{Alpha: 0.5, Beta: 100})
	l := p.Link(0, 1)
	if l.Alpha != 0.5 || l.Beta != 100 {
		t.Error("set/get link")
	}
	if p.Link(1, 0).Alpha != 0 {
		t.Error("asymmetric by default")
	}
}

func TestWeights(t *testing.T) {
	p := NewPerfMatrix(2)
	p.SetLink(0, 1, Link{Alpha: 1, Beta: 10})
	p.SetLink(1, 0, Link{Alpha: 2, Beta: 20})
	w := p.Weights(100)
	if w.At(0, 0) != 0 || w.At(1, 1) != 0 {
		t.Error("diagonal should be zero")
	}
	if math.Abs(w.At(0, 1)-11) > 1e-12 {
		t.Errorf("w(0,1)=%v", w.At(0, 1))
	}
	if math.Abs(w.At(1, 0)-7) > 1e-12 {
		t.Errorf("w(1,0)=%v", w.At(1, 0))
	}
}

func TestPerfMatrixClone(t *testing.T) {
	p := NewPerfMatrix(2)
	p.SetLink(0, 1, Link{Alpha: 1, Beta: 2})
	c := p.Clone()
	c.SetLink(0, 1, Link{Alpha: 9, Beta: 9})
	if p.Link(0, 1).Alpha != 1 {
		t.Error("clone aliases")
	}
}

func TestVectorizeRoundTrip(t *testing.T) {
	m := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	v := Vectorize(m)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("vectorize %v", v)
		}
	}
	back := Devectorize(v, 2)
	if !back.ApproxEqual(m, 0) {
		t.Error("devectorize")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Devectorize([]float64{1, 2, 3}, 2)
}

func TestTPMatrixAppendAndViews(t *testing.T) {
	tp := NewTPMatrix(2)
	s1 := mat.FromRows([][]float64{{0, 1}, {2, 0}})
	s2 := mat.FromRows([][]float64{{0, 3}, {4, 0}})
	tp.Append(0, s1)
	tp.Append(10, s2)
	if tp.Steps() != 2 {
		t.Fatal("steps")
	}
	if !Devectorize(tp.Matrix().Row(1), tp.N).ApproxEqual(s2, 0) {
		t.Error("snapshot")
	}
	m := tp.Matrix()
	if m.Rows() != 2 || m.Cols() != 4 {
		t.Error("matrix dims")
	}
	if m.At(0, 1) != 1 || m.At(1, 2) != 4 {
		t.Error("matrix content")
	}
	h := tp.Head(1)
	if h.Steps() != 1 || h.Times[0] != 0 {
		t.Error("head")
	}
	if tp.Head(99).Steps() != 2 {
		t.Error("head clamp")
	}
	c := tp.Clone()
	c.Append(20, s1)
	if tp.Steps() != 2 {
		t.Error("clone aliases")
	}
}

func TestTPMatrixAppendPanics(t *testing.T) {
	tp := NewTPMatrix(2)
	mustPanic(t, func() { tp.Append(0, mat.NewDense(3, 3)) })
	tp.Append(5, mat.NewDense(2, 2))
	mustPanic(t, func() { tp.Append(1, mat.NewDense(2, 2)) })
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

// Property: vectorize/devectorize is lossless for arbitrary square sizes.
func TestPropertyVectorizeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := mat.RandomNormal(rng, n, n, 0, 5)
		return Devectorize(Vectorize(m), n).ApproxEqual(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRepairInNetmodel(t *testing.T) {
	pm := NewPerfMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				pm.SetLink(i, j, Link{Alpha: 1e-3, Beta: 2e6})
			}
		}
	}
	pm.SetLink(1, 2, Link{Alpha: math.NaN(), Beta: math.NaN()})
	n := pm.Repair()
	if n != 2 { // one latency cell + one bandwidth cell
		t.Errorf("repaired %d cells", n)
	}
	if pm.Link(1, 2).Beta != 2e6 {
		t.Error("NaN cell should borrow the reverse direction")
	}
	// Fully-broken matrix: nothing to borrow, cells stay broken.
	empty := NewPerfMatrix(2)
	if empty.Repair() != 0 {
		t.Error("all-zero matrix has nothing to repair from")
	}
}
