package core

// The binary layout of an advisor's state and its synthetic cluster's,
// for hosts that seal them to restart without recomputing (the advisor
// daemon's state files). Every value is a little-endian 64-bit word:
// ints as two's complement, floats as their exact bits, flags as 0 or
// 1, and every vector is preceded by its length. The decoder trusts
// nothing: it checks each length against the shapes the host declares
// before allocating, and each random-stream position against the
// host's cap before anything is fast-forwarded.

import (
	"encoding/binary"
	"fmt"
	"math"

	"netconstant/internal/cloud"
	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
)

// stateLayout is the version AppendState writes first; DecodeState
// refuses any other, so a host that restores state written by another
// layout falls back instead of misreading it.
const stateLayout = 1

// StateLimits declares what a decoded state may hold: the exact
// cluster size and calibration steps of the host's advisor, and caps on
// the recorded rack-pair factors and random-stream positions.
type StateLimits struct {
	VMs, Steps   int
	MaxCrossRack int
	MaxDraws     uint64
}

// AppendState appends the layout of a cluster's and an advisor's state
// to b. The advisor's streaming solvers must be over the calibration's
// steps × VMs² TP-matrices, as every session BeginStreamingCtx opens is.
func AppendState(b []byte, c cloud.ClusterState, a AdvisorState) []byte {
	w := &stateWriter{buf: b}
	w.u64(stateLayout)
	w.f64(c.Now)
	w.ints(c.Hosts)
	w.floats(c.VMFactor)
	w.int(c.Migrations)
	w.u64(c.Draws)
	w.u64(c.ProviderDraws)
	w.int(len(c.CrossRack))
	for _, rf := range c.CrossRack {
		w.int(rf.R1)
		w.int(rf.R2)
		w.f64(rf.F)
	}

	w.f64(a.NormE)
	w.f64(a.Health.Coverage)
	w.f64(a.Health.MeanQuality)
	w.f64(a.Health.OutlierRate)
	w.f64(a.Health.RetryExhaustion)
	w.flag(a.Health.Converged)
	w.int(int(a.Health.Confidence))
	w.int(a.Calibrations)
	w.int(a.Recalibrations)
	w.int(a.PartialResolves)
	w.f64(a.CalibrationCost)
	w.f64(a.DivEWMA)
	w.int(a.RegimeRun)
	w.flag(a.LastCal != nil)
	if a.LastCal != nil {
		w.perf(a.Constant)
		w.perf(a.Heuristic)
		w.tp(a.LastCal.Latency)
		w.tp(a.LastCal.Bandwidth)
		w.f64(a.LastCal.TotalCost)
		w.dense(a.LastCal.Mask)
	}
	w.flag(a.StreamLat != nil)
	if a.StreamLat != nil {
		w.stream(a.StreamLat)
		w.stream(a.StreamBw)
	}
	return w.buf
}

// DecodeState parses what AppendState wrote, all of b, within lim. It
// checks the layout, not the values: Restore on the cluster and the
// advisor checks that the state fits them.
func DecodeState(b []byte, lim StateLimits) (cloud.ClusterState, AdvisorState, error) {
	r := &stateReader{b: b, maxDraws: lim.MaxDraws}
	if v := r.u64(); r.err == nil && v != stateLayout {
		return cloud.ClusterState{}, AdvisorState{}, fmt.Errorf("core: state layout %d, want %d", v, stateLayout)
	}
	n, steps := lim.VMs, lim.Steps
	var c cloud.ClusterState
	c.Now = r.f64()
	c.Hosts = r.ints(n)
	c.VMFactor = r.floats(n)
	c.Migrations = r.count(math.MaxInt)
	c.Draws = r.draws()
	c.ProviderDraws = r.draws()
	c.CrossRack = make([]cloud.RackPairFactor, r.count(min(lim.MaxCrossRack, len(r.b)/24)))
	for i := range c.CrossRack {
		c.CrossRack[i] = cloud.RackPairFactor{R1: r.int(), R2: r.int(), F: r.f64()}
	}

	var a AdvisorState
	a.NormE = r.f64()
	a.Health.Coverage = r.f64()
	a.Health.MeanQuality = r.f64()
	a.Health.OutlierRate = r.f64()
	a.Health.RetryExhaustion = r.f64()
	a.Health.Converged = r.flag()
	a.Health.Confidence = Confidence(r.count(int(ConfidenceHigh)))
	a.Calibrations = r.count(math.MaxInt)
	a.Recalibrations = r.count(math.MaxInt)
	a.PartialResolves = r.count(math.MaxInt)
	a.CalibrationCost = r.f64()
	a.DivEWMA = r.f64()
	a.RegimeRun = r.count(math.MaxInt)
	if r.flag() {
		a.Constant = r.perf(n)
		a.Heuristic = r.perf(n)
		a.LastCal = &cloud.TemporalCalibration{Latency: r.tp(n, steps), Bandwidth: r.tp(n, steps)}
		a.LastCal.TotalCost = r.f64()
		a.LastCal.Mask = r.dense(steps, n*n)
	}
	if r.flag() {
		a.StreamLat = r.stream(steps, n*n)
		a.StreamBw = r.stream(steps, n*n)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return cloud.ClusterState{}, AdvisorState{}, r.err
	}
	return c, a, nil
}

// stateWriter appends the layout's words.
type stateWriter struct{ buf []byte }

func (w *stateWriter) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *stateWriter) int(v int)     { w.u64(uint64(int64(v))) }
func (w *stateWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *stateWriter) flag(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *stateWriter) floats(v []float64) {
	w.int(len(v))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *stateWriter) ints(v []int) {
	w.int(len(v))
	for _, x := range v {
		w.int(x)
	}
}

// dense writes an optional matrix: presence, then its row-major values.
func (w *stateWriter) dense(m *mat.Dense) {
	w.flag(m != nil)
	if m != nil {
		w.floats(m.Data())
	}
}

func (w *stateWriter) perf(p *netmodel.PerfMatrix) {
	w.floats(p.Latency.Data())
	w.floats(p.Bandwth.Data())
	w.dense(p.Quality)
}

func (w *stateWriter) tp(tp *netmodel.TPMatrix) {
	w.floats(tp.Times)
	w.floats(tp.Matrix().Data())
}

func (w *stateWriter) stream(s *rpca.StreamState) {
	w.floats(s.Cols)
	w.floats(s.Constant)
	w.flag(s.Last != nil)
	if s.Last != nil {
		w.floats(s.Last.D.Data())
		w.floats(s.Last.E.Data())
		w.int(s.Last.Iterations)
		w.flag(s.Last.Converged)
		w.int(s.Last.RankD)
	}
	w.flag(s.Dirty)
	w.f64(s.TrackTau)
	w.int(s.SinceTrack)
	w.int(s.SinceResolve)
	w.int(s.Stats.Columns)
	w.int(s.Stats.Replaced)
	w.int(s.Stats.Tracked)
	w.int(s.Stats.Resolves)
	sv := s.SVT
	w.int(sv.Rows)
	w.int(sv.Cols)
	w.int(sv.PrevRank)
	w.int(sv.UK)
	w.int(sv.FullSVDs)
	w.int(sv.Truncs)
	w.floats(sv.U)
}

// stateReader consumes the layout. The first failure sticks: later
// reads return zero values, and the caller checks err once.
type stateReader struct {
	b        []byte
	maxDraws uint64
	err      error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: state layout: "+format, args...)
	}
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *stateReader) int() int     { return int(int64(r.u64())) }
func (r *stateReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *stateReader) flag() bool {
	switch v := r.u64(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("flag word %d", v)
		return false
	}
}

// count reads an int in [0, limit].
func (r *stateReader) count(limit int) int {
	v := r.int()
	if v < 0 || v > limit {
		r.fail("count %d outside [0, %d]", v, limit)
		return 0
	}
	return v
}

// draws reads a random-stream position within the host's cap.
func (r *stateReader) draws() uint64 {
	v := r.u64()
	if v > r.maxDraws {
		r.fail("stream position %d past the cap %d", v, r.maxDraws)
		return 0
	}
	return v
}

// length reads a vector length that must equal want and fit in what is
// left of the input.
func (r *stateReader) length(want int) bool {
	got := r.int()
	if r.err != nil {
		return false
	}
	if got != want || want > len(r.b)/8 {
		r.fail("vector of %d values, want %d with %d bytes left", got, want, len(r.b))
		return false
	}
	return true
}

func (r *stateReader) floats(want int) []float64 {
	if !r.length(want) {
		return nil
	}
	v := make([]float64, want)
	for i := range v {
		v[i] = r.f64()
	}
	return v
}

func (r *stateReader) ints(want int) []int {
	if !r.length(want) {
		return nil
	}
	v := make([]int, want)
	for i := range v {
		v[i] = r.int()
	}
	return v
}

// matrix reads a present rows×cols matrix (nil after a failure).
func (r *stateReader) matrix(rows, cols int) *mat.Dense {
	v := r.floats(rows * cols)
	if v == nil {
		return nil
	}
	return mat.NewDenseData(rows, cols, v)
}

// dense reads an optional rows×cols matrix.
func (r *stateReader) dense(rows, cols int) *mat.Dense {
	if !r.flag() {
		return nil
	}
	return r.matrix(rows, cols)
}

func (r *stateReader) perf(n int) *netmodel.PerfMatrix {
	return &netmodel.PerfMatrix{N: n, Latency: r.matrix(n, n), Bandwth: r.matrix(n, n), Quality: r.dense(n, n)}
}

func (r *stateReader) tp(n, steps int) *netmodel.TPMatrix {
	times := r.floats(steps)
	rows := r.floats(steps * n * n)
	tp := netmodel.NewTPMatrix(n)
	if r.err != nil {
		return tp
	}
	for i := 1; i < steps; i++ {
		if !(times[i] >= times[i-1]) {
			r.fail("calibration times out of order")
			return tp
		}
	}
	for i := 0; i < steps; i++ {
		tp.Append(times[i], netmodel.Devectorize(rows[i*n*n:(i+1)*n*n], n))
	}
	return tp
}

func (r *stateReader) stream(rows, cols int) *rpca.StreamState {
	s := &rpca.StreamState{Cols: r.floats(rows * cols), Constant: r.floats(cols)}
	if r.flag() {
		s.Last = &rpca.Result{D: r.matrix(rows, cols), E: r.matrix(rows, cols)}
		s.Last.Iterations = r.count(math.MaxInt)
		s.Last.Converged = r.flag()
		s.Last.RankD = r.count(min(rows, cols))
	}
	s.Dirty = r.flag()
	s.TrackTau = r.f64()
	s.SinceTrack = r.count(math.MaxInt)
	s.SinceResolve = r.count(math.MaxInt)
	s.Stats.Columns = r.count(math.MaxInt)
	s.Stats.Replaced = r.count(math.MaxInt)
	s.Stats.Tracked = r.count(math.MaxInt)
	s.Stats.Resolves = r.count(math.MaxInt)
	sv := &s.SVT
	sv.Rows = r.int()
	sv.Cols = r.int()
	if r.err == nil && (sv.Rows != 0 || sv.Cols != 0) && (sv.Rows != rows || sv.Cols != cols) {
		r.fail("SVT bound to %d×%d, want %d×%d", sv.Rows, sv.Cols, rows, cols)
	}
	small := min(sv.Rows, sv.Cols)
	sv.PrevRank = r.int()
	sv.UK = r.count(small)
	sv.FullSVDs = r.count(math.MaxInt)
	sv.Truncs = r.count(math.MaxInt)
	sv.U = r.floats(small * sv.UK)
	return s
}
