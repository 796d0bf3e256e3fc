package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"netconstant/internal/stats"
)

// streamAdvisor calibrates a small cluster and opens a streaming session.
func streamAdvisor(t *testing.T, n int, cfg AdvisorConfig) *Advisor {
	t.Helper()
	_, vc := testCluster(t, n, 40)
	adv := NewAdvisor(vc, stats.NewRNG(4), cfg)
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := adv.BeginStreamingCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return adv
}

func TestAdvisorStreamingLifecycle(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{})
	if !adv.StreamingActive() {
		t.Fatal("session not active after BeginStreaming")
	}
	// A fresh full calibration supersedes the session.
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if adv.StreamingActive() {
		t.Fatal("session survived a full calibration")
	}
	if err := adv.PartialResolve(); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("PartialResolve err = %v, want ErrNotStreaming", err)
	}
	if err := adv.StreamPair(0, 1, nil, nil); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("StreamPair err = %v, want ErrNotStreaming", err)
	}
}

func TestAdvisorStreamPairAndPartialResolve(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{})
	rows := adv.LastCalibration().Latency.Steps()
	lat := make([]float64, rows)
	bw := make([]float64, rows)
	for i := range lat {
		lat[i] = 5e-3 // a migrated pair: much slower latency,
		bw[i] = 1e6   // much thinner pipe
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 5}} {
		if err := adv.StreamPair(pair[0], pair[1], lat, bw); err != nil {
			t.Fatal(err)
		}
	}
	if err := adv.StreamPair(9, 0, lat, bw); err == nil {
		t.Fatal("out-of-cluster pair accepted")
	}

	before := adv.Constant()
	if err := adv.PartialResolve(); err != nil {
		t.Fatal(err)
	}
	if adv.PartialResolves() != 1 {
		t.Fatalf("partial resolves = %d, want 1", adv.PartialResolves())
	}
	after := adv.Constant()
	if before == after {
		t.Fatal("partial re-solve did not install fresh guidance")
	}
	// The re-measured column must have pulled the constant toward the new
	// regime for that pair.
	if after.Latency.At(0, 1) <= before.Latency.At(0, 1) {
		t.Errorf("latency constant for the slowed pair did not increase: %v -> %v",
			before.Latency.At(0, 1), after.Latency.At(0, 1))
	}
	if adv.NormE() < 0 || adv.NormE() > 1 {
		t.Errorf("NormE out of range: %v", adv.NormE())
	}
}

// TestAdvisorObserveRegimeUsesPartialResolve: sustained sub-threshold
// drift with a session open must trigger a partial re-solve, not a full
// re-calibration.
func TestAdvisorObserveRegimeUsesPartialResolve(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{Threshold: 1.0, RegimeWindow: 3})
	cals := adv.Calibrations()
	triggered := false
	for i := 0; i < 12 && !triggered; i++ {
		var err error
		// 80% persistent divergence: above RegimeThreshold (0.5), below
		// the 100% spike threshold.
		triggered, err = adv.ObserveCtx(context.Background(), 1.0, 1.8)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !triggered {
		t.Fatal("regime detector never triggered")
	}
	if adv.PartialResolves() != 1 {
		t.Fatalf("partial resolves = %d, want 1", adv.PartialResolves())
	}
	if adv.Calibrations() != cals {
		t.Fatalf("regime trigger ran a full calibration (%d -> %d)", cals, adv.Calibrations())
	}
	if !adv.StreamingActive() {
		t.Fatal("session closed by a partial re-solve")
	}
	if adv.divEWMA != 0 {
		t.Fatal("partial re-solve did not reset the divergence EWMA")
	}

	// A hard spike still forces the full calibrate and closes the session.
	triggered, err := adv.ObserveCtx(context.Background(), 1.0, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if !triggered || adv.Calibrations() != cals+1 {
		t.Fatalf("spike: triggered=%v calibrations %d (want %d)", triggered, adv.Calibrations(), cals+1)
	}
	if adv.StreamingActive() {
		t.Fatal("session survived a spike-triggered full calibration")
	}
}

// TestAdvisorVerifyStreaming pins the streaming session to the batch
// differential oracle at the acceptance tolerance.
func TestAdvisorVerifyStreaming(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{})
	rows := adv.LastCalibration().Latency.Steps()
	lat := make([]float64, rows)
	bw := make([]float64, rows)
	for i := range lat {
		lat[i] = 300e-6
		bw[i] = 15e6
	}
	if err := adv.StreamPair(3, 4, lat, bw); err != nil {
		t.Fatal(err)
	}
	agLat, agBw, err := adv.VerifyStreaming()
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range []struct {
		name string
		rel  float64
	}{
		{"latency D", agLat.RelFroD}, {"latency constant", agLat.ConstantRel},
		{"bandwidth D", agBw.RelFroD}, {"bandwidth constant", agBw.ConstantRel},
	} {
		if math.IsNaN(ag.rel) || ag.rel > 1e-10 {
			t.Errorf("%s disagreement %.3e (want <= 1e-10)", ag.name, ag.rel)
		}
	}
}

func TestAdvisorBeginStreamingErrors(t *testing.T) {
	_, vc := testCluster(t, 4, 41)
	adv := NewAdvisor(vc, stats.NewRNG(5), AdvisorConfig{})
	if err := adv.BeginStreamingCtx(context.Background()); err == nil {
		t.Fatal("BeginStreaming before calibration did not error")
	}
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if err := adv.BeginStreamingCtx(ctx); err == nil {
		t.Fatal("cancelled BeginStreamingCtx did not error")
	}
	if adv.StreamingActive() {
		t.Fatal("failed BeginStreaming left a session open")
	}
}
