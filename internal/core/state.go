package core

import (
	"context"
	"errors"
	"fmt"

	"netconstant/internal/cloud"
	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
)

// AdvisorState is an Advisor's mutable state as plain values:
// everything later guidance, observations, calibrations and streaming
// calls depend on. The configuration, the cluster and the measurement
// rng are the host's and are not part of it; a host that needs the
// rng's position counts it (stats.CountingSource). The batch solver is
// not part of it either: it forgets its warm start on every solve.
// Matrices are shared with the advisor, which replaces and never
// mutates them.
type AdvisorState struct {
	// Constant and Heuristic are the installed guidance matrices; nil
	// before the first calibration.
	Constant, Heuristic *netmodel.PerfMatrix
	NormE               float64
	Health              CalibrationHealth

	Calibrations, Recalibrations, PartialResolves int
	CalibrationCost                               float64

	// LastCal is the last installed calibration, which a streaming
	// session seeds from. Its per-step accounting (Steps) is not part of
	// the state: only the analysis that graded it reads it.
	LastCal *cloud.TemporalCalibration

	DivEWMA   float64
	RegimeRun int

	// StreamLat and StreamBw are an open streaming session's solvers;
	// both nil when no session is open.
	StreamLat, StreamBw *rpca.StreamState
}

// State returns the advisor's state.
func (a *Advisor) State() AdvisorState {
	st := AdvisorState{
		Constant:        a.constant,
		Heuristic:       a.heuristic,
		NormE:           a.normE,
		Health:          a.health,
		Calibrations:    a.calibrations,
		Recalibrations:  a.recalibrations,
		PartialResolves: a.partialResolves,
		CalibrationCost: a.totalCalCost,
		LastCal:         a.lastCal,
		DivEWMA:         a.divEWMA,
		RegimeRun:       a.regimeRun,
	}
	if a.stream != nil {
		lat, bw := a.stream.lat.State(), a.stream.bw.State()
		st.StreamLat, st.StreamBw = &lat, &bw
	}
	return st
}

// Restore installs a state State recorded into an advisor with the same
// configuration and cluster size that has analyzed nothing yet. An open
// streaming session is rebuilt bound to ctx, as BeginStreamingCtx binds
// it. It refuses a state whose shapes do not fit the cluster or each
// other; the advisor is unchanged then.
func (a *Advisor) Restore(ctx context.Context, st AdvisorState) error {
	n := a.cluster.Size()
	calibrated := st.LastCal != nil
	switch {
	case a.lastCal != nil:
		return errors.New("core: restore into an advisor that has analyzed a calibration")
	case (st.Constant != nil) != calibrated || (st.Heuristic != nil) != calibrated:
		return errors.New("core: advisor state has guidance without a calibration, or the reverse")
	case st.Calibrations < 0 || st.Recalibrations < 0 || st.PartialResolves < 0 || st.RegimeRun < 0:
		return errors.New("core: advisor state has a negative counter")
	case (st.StreamLat != nil) != (st.StreamBw != nil):
		return errors.New("core: advisor state has half a streaming session")
	}
	if calibrated {
		if err := checkPerf(st.Constant, n); err != nil {
			return fmt.Errorf("core: advisor state constant: %w", err)
		}
		if err := checkPerf(st.Heuristic, n); err != nil {
			return fmt.Errorf("core: advisor state heuristic: %w", err)
		}
		if err := checkCalibration(st.LastCal, n); err != nil {
			return err
		}
	}
	var stream *streamState
	if st.StreamLat != nil {
		if !calibrated || st.LastCal.Mask != nil {
			return errors.New("core: advisor state streams without a completely observed calibration")
		}
		if len(st.StreamLat.Constant) != n*n || len(st.StreamBw.Constant) != n*n {
			return fmt.Errorf("core: advisor state streams %d/%d columns, want %d", len(st.StreamLat.Constant), len(st.StreamBw.Constant), n*n)
		}
		lat, bw, err := a.newStreamSolvers(ctx, st.LastCal.Latency.Steps())
		if err != nil {
			return err
		}
		if err := lat.Restore(*st.StreamLat); err != nil {
			return err
		}
		if err := bw.Restore(*st.StreamBw); err != nil {
			return err
		}
		stream = &streamState{lat: lat, bw: bw, n: n}
	}
	a.constant, a.heuristic = st.Constant, st.Heuristic
	a.normE, a.health = st.NormE, st.Health
	a.calibrations, a.recalibrations, a.partialResolves = st.Calibrations, st.Recalibrations, st.PartialResolves
	a.totalCalCost = st.CalibrationCost
	a.lastCal = st.LastCal
	a.divEWMA, a.regimeRun = st.DivEWMA, st.RegimeRun
	a.stream = stream
	return nil
}

// checkPerf refuses a performance matrix that is not n×n throughout.
func checkPerf(p *netmodel.PerfMatrix, n int) error {
	if p.N != n || !square(p.Latency, n) || !square(p.Bandwth, n) || (p.Quality != nil && !square(p.Quality, n)) {
		return fmt.Errorf("not a %d×%d performance matrix", n, n)
	}
	return nil
}

func square(m *mat.Dense, n int) bool {
	if m == nil {
		return false
	}
	r, c := m.Dims()
	return r == n && c == n
}

// checkCalibration refuses a calibration whose TP-matrices and mask do
// not share one steps×n² shape.
func checkCalibration(tc *cloud.TemporalCalibration, n int) error {
	if tc.Latency == nil || tc.Bandwidth == nil || tc.Latency.N != n || tc.Bandwidth.N != n {
		return fmt.Errorf("core: advisor state calibration is not over %d VMs", n)
	}
	steps := tc.Latency.Steps()
	if steps == 0 || tc.Bandwidth.Steps() != steps {
		return fmt.Errorf("core: advisor state calibration has %d/%d steps", steps, tc.Bandwidth.Steps())
	}
	if tc.Mask != nil {
		if r, c := tc.Mask.Dims(); r != steps || c != n*n {
			return fmt.Errorf("core: advisor state calibration mask is %d×%d, want %d×%d", r, c, steps, n*n)
		}
	}
	return nil
}
