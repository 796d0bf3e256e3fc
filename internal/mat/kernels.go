package mat

// Parallel kernels and their allocation-free *Into / in-place variants.
// Every kernel here writes disjoint output ranges per chunk and keeps the
// per-element floating-point order of the plain sequential loop, so
// results are byte-identical at any parallelism (see parallel.go).
//
// The *Into variants exist for the RPCA hot loop: solver iterations reuse
// a preallocated arena instead of allocating ~10 fresh matrices per
// iteration. Each kernel is split into a plain range function (the
// sequential fast path, which must not heap-allocate) and a small task
// wrapper built only when the kernel actually dispatches to the pool.
//
// Unless noted otherwise, out must not alias an input; the elementwise
// kernels (LinComb*, SoftThresholdInto, MomentumInto) allow out to alias
// any input because element i reads only index i.

import "math"

// --- matrix · matrix ---------------------------------------------------

func mulRange(out, a, b *Dense, lo, hi int) {
	bc := b.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*bc : (i+1)*bc]
		for j := range orow {
			orow[j] = 0
		}
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*bc : (k+1)*bc]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
}

type mulTask struct{ out, a, b *Dense }

func (t *mulTask) Run(lo, hi int) { mulRange(t.out, t.a, t.b, lo, hi) }

// MulInto computes out = a·b into the preallocated out (which must not
// alias a or b).
//
//netlint:hotpath
func MulInto(out, a, b *Dense) {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		panic("mat: MulInto dimension mismatch")
	}
	if work := a.rows * a.cols * b.cols; parGate(work) {
		grain := maxInt(1, parMinWork/maxInt(1, a.cols*b.cols))
		parallelFor(a.rows, grain, &mulTask{out: out, a: a, b: b})
		return
	}
	mulRange(out, a, b, 0, a.rows)
}

func mulATBRange(out, a, b *Dense, lo, hi int) {
	ac, bc := a.cols, b.cols
	for l := lo; l < hi; l++ {
		orow := out.data[l*bc : (l+1)*bc]
		for j := range orow {
			orow[j] = 0
		}
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*ac+lo : i*ac+hi]
		brow := b.data[i*bc : (i+1)*bc]
		for l, v := range arow {
			if v == 0 {
				continue
			}
			orow := out.data[(lo+l)*bc : (lo+l+1)*bc]
			for j, bij := range brow {
				orow[j] += v * bij
			}
		}
	}
}

type mulATBTask struct{ out, a, b *Dense }

func (t *mulATBTask) Run(lo, hi int) { mulATBRange(t.out, t.a, t.b, lo, hi) }

// mulATBInto computes out = aᵀ·b (out is a.cols × b.cols) without
// materializing the transpose. Chunks partition rows of out, i.e. columns
// of a; each output element accumulates over a's rows in ascending order.
//
//netlint:hotpath
func mulATBInto(out, a, b *Dense) {
	if a.rows != b.rows || out.rows != a.cols || out.cols != b.cols {
		panic("mat: mulATBInto dimension mismatch")
	}
	if work := a.rows * a.cols * b.cols; parGate(work) {
		grain := maxInt(1, parMinWork/maxInt(1, a.rows*b.cols))
		parallelFor(a.cols, grain, &mulATBTask{out: out, a: a, b: b})
		return
	}
	mulATBRange(out, a, b, 0, a.cols)
}

func gramRange(out, m *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j := i; j < m.rows; j++ {
			rj := m.data[j*m.cols : (j+1)*m.cols]
			var s float64
			for k := range ri {
				s += ri[k] * rj[k]
			}
			out.data[i*out.cols+j] = s
			out.data[j*out.cols+i] = s
		}
	}
}

type gramTask struct{ out, m *Dense }

func (t *gramTask) Run(lo, hi int) { gramRange(t.out, t.m, lo, hi) }

// GramInto computes out = m·mᵀ into the preallocated rows×rows out.
func GramInto(out, m *Dense) {
	if out.rows != m.rows || out.cols != m.rows {
		panic("mat: GramInto dimension mismatch")
	}
	if work := m.rows * m.rows * m.cols / 2; parGate(work) {
		parallelFor(m.rows, 1, &gramTask{out: out, m: m})
		return
	}
	gramRange(out, m, 0, m.rows)
}

// --- matrix · vector ---------------------------------------------------

func mulVecRange(out []float64, m *Dense, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
}

type mulVecTask struct {
	m      *Dense
	x, out []float64
}

func (t *mulVecTask) Run(lo, hi int) { mulVecRange(t.out, t.m, t.x, lo, hi) }

// MulVecInto computes out = m·x into the preallocated out.
func MulVecInto(out []float64, m *Dense, x []float64) {
	if len(x) != m.cols || len(out) != m.rows {
		panic("mat: MulVecInto dimension mismatch")
	}
	if parGate(m.rows * m.cols) {
		grain := maxInt(1, parMinWork/maxInt(1, m.cols))
		parallelFor(m.rows, grain, &mulVecTask{m: m, x: x, out: out})
		return
	}
	mulVecRange(out, m, x, 0, m.rows)
}

func mulTVecRange(out []float64, m *Dense, x []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		out[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols+lo : i*m.cols+hi]
		o := out[lo:hi]
		for j, v := range row {
			o[j] += xi * v
		}
	}
}

type mulTVecTask struct {
	m      *Dense
	x, out []float64
}

func (t *mulTVecTask) Run(lo, hi int) { mulTVecRange(t.out, t.m, t.x, lo, hi) }

// MulTVecInto computes out = mᵀ·x into the preallocated out. Chunks
// partition the output (columns of m), so every element keeps the
// sequential row-ascending accumulation order.
func MulTVecInto(out []float64, m *Dense, x []float64) {
	if len(x) != m.rows || len(out) != m.cols {
		panic("mat: MulTVecInto dimension mismatch")
	}
	if parGate(m.rows * m.cols) {
		grain := maxInt(1, parMinWork/maxInt(1, m.rows))
		parallelFor(m.cols, grain, &mulTVecTask{m: m, x: x, out: out})
		return
	}
	mulTVecRange(out, m, x, 0, m.cols)
}

// --- elementwise fused kernels ----------------------------------------

// elemGrain is the per-chunk element count for the cheap elementwise
// kernels (a couple of flops per element).
const elemGrain = 1 << 15

func linComb2Range(out, a, b []float64, sa, sb float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = sa*a[i] + sb*b[i]
	}
}

type linComb2Task struct {
	out, a, b []float64
	sa, sb    float64
}

func (t *linComb2Task) Run(lo, hi int) { linComb2Range(t.out, t.a, t.b, t.sa, t.sb, lo, hi) }

// LinComb2Into computes out = sa·a + sb·b elementwise. out may alias a
// and/or b.
//
//netlint:hotpath
func LinComb2Into(out *Dense, sa float64, a *Dense, sb float64, b *Dense) {
	a.sameDims(b)
	a.sameDims(out)
	if parGate(len(out.data)) {
		parallelFor(len(out.data), elemGrain, &linComb2Task{out: out.data, a: a.data, b: b.data, sa: sa, sb: sb})
		return
	}
	linComb2Range(out.data, a.data, b.data, sa, sb, 0, len(out.data))
}

func linComb3Range(out, a, b, c []float64, sa, sb, sc float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = sa*a[i] + sb*b[i] + sc*c[i]
	}
}

type linComb3Task struct {
	out, a, b, c []float64
	sa, sb, sc   float64
}

func (t *linComb3Task) Run(lo, hi int) {
	linComb3Range(t.out, t.a, t.b, t.c, t.sa, t.sb, t.sc, lo, hi)
}

// LinComb3Into computes out = sa·a + sb·b + sc·c elementwise. out may
// alias any input.
//
//netlint:hotpath
func LinComb3Into(out *Dense, sa float64, a *Dense, sb float64, b *Dense, sc float64, c *Dense) {
	a.sameDims(b)
	a.sameDims(c)
	a.sameDims(out)
	if parGate(len(out.data)) {
		parallelFor(len(out.data), elemGrain,
			&linComb3Task{out: out.data, a: a.data, b: b.data, c: c.data, sa: sa, sb: sb, sc: sc})
		return
	}
	linComb3Range(out.data, a.data, b.data, c.data, sa, sb, sc, 0, len(out.data))
}

func momentumRange(out, cur, prev []float64, beta float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := cur[i]
		out[i] = c + beta*(c-prev[i])
	}
}

type momentumTask struct {
	out, cur, prev []float64
	beta           float64
}

func (t *momentumTask) Run(lo, hi int) { momentumRange(t.out, t.cur, t.prev, t.beta, lo, hi) }

// MomentumInto computes the Nesterov extrapolation
// out = cur + beta·(cur − prev) elementwise; out may alias cur or prev.
// With beta == 0 it reduces to an exact copy of cur.
//
//netlint:hotpath
func MomentumInto(out, cur, prev *Dense, beta float64) {
	cur.sameDims(prev)
	cur.sameDims(out)
	if parGate(len(out.data)) {
		parallelFor(len(out.data), elemGrain,
			&momentumTask{out: out.data, cur: cur.data, prev: prev.data, beta: beta})
		return
	}
	momentumRange(out.data, cur.data, prev.data, beta, 0, len(out.data))
}

func softRange(out, src []float64, tau float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = softScalar(src[i], tau)
	}
}

type softTask struct {
	out, src []float64
	tau      float64
}

func (t *softTask) Run(lo, hi int) { softRange(t.out, t.src, t.tau, lo, hi) }

// SoftThresholdInto applies sign(x)·max(|x|−tau, 0) elementwise into out;
// out may alias src.
//
//netlint:hotpath
func SoftThresholdInto(out, src *Dense, tau float64) {
	src.sameDims(out)
	if parGate(len(out.data)) {
		parallelFor(len(out.data), elemGrain, &softTask{out: out.data, src: src.data, tau: tau})
		return
	}
	softRange(out.data, src.data, tau, 0, len(out.data))
}

// AddScaledInPlace computes m += s·b elementwise.
//
//netlint:hotpath
func AddScaledInPlace(m *Dense, s float64, b *Dense) {
	m.sameDims(b)
	for i, v := range b.data {
		m.data[i] += s * v
	}
}

// CopyFrom copies b's elements into m (shapes must match).
func (m *Dense) CopyFrom(b *Dense) {
	m.sameDims(b)
	copy(m.data, b.data)
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// NormFroDiff returns ‖a − b‖_F without materializing the difference —
// the convergence criterion of the RPCA solvers, allocation-free.
//
//netlint:hotpath
func NormFroDiff(a, b *Dense) float64 {
	a.sameDims(b)
	var s float64
	for i := range a.data {
		d := a.data[i] - b.data[i]
		s += d * d
	}
	return math.Sqrt(s)
}
