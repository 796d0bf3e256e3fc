package serve

// A tenant is one journaled advisor: a seeded virtual cluster, the
// core.Advisor bound to it, and the checkpoint.Store holding the op log
// that makes both rebuildable. Restart equivalence rests on two facts:
// every mutation is a deterministic function of (TenantConfig, op
// sequence) — the synthetic substrate is fully seeded, and calibrations
// measure throwaway replicas provisioned from key seeds so memo hits and
// misses are invisible to the tenant's own rng streams — and ops are
// journaled only after they applied cleanly, so the journal never holds
// an op the acked state does not reflect.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"netconstant/internal/checkpoint"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// Op kinds. The journal stores the op struct as JSON — fixed field
// order, human-greppable, and free of gob's type-registry coupling.
const (
	opCreate      = "create"
	opCalibrate   = "calibrate"
	opObserve     = "observe"
	opAdvance     = "advance"
	opStreamBegin = "stream-begin"
	opStreamPair  = "stream-pair"
	opResolve     = "partial-resolve"
)

// op is one journaled logical mutation. Exactly the fields its kind
// needs are set; the rest stay at their zero values and are omitted
// from the encoding.
type op struct {
	Kind     string        `json:"kind"`
	Cfg      *TenantConfig `json:"cfg,omitempty"`
	Expected float64       `json:"expected,omitempty"`
	Actual   float64       `json:"actual,omitempty"`
	Dt       float64       `json:"dt,omitempty"`
	Src      int           `json:"src,omitempty"`
	Dst      int           `json:"dst,omitempty"`
	Lat      []float64     `json:"lat,omitempty"`
	Bw       []float64     `json:"bw,omitempty"`
}

// opResult carries the per-op response payload back to the handler.
type opResult struct {
	Triggered bool   // observe: maintenance fired
	Seq       uint64 // the tenant's journal sequence after the op
}

type tenant struct {
	id      string
	cfg     TenantConfig // defaults applied
	pc      cloud.ProviderConfig
	calCfg  cloud.CalibrationConfig
	cluster *cloud.VirtualCluster
	adv     *core.Advisor
	store   *checkpoint.Store
	srv     *Server

	// calIndex counts completed full calibrations; it derives each
	// calibration's measurement-rng seed, so the Nth calibration of a
	// tenant measures the same trace in every replay — and in every
	// sibling tenant with the same config, which is what makes the
	// shared memo effective across tenants.
	calIndex int

	advSrc *stats.CountingSource // the advisor's measurement stream, counted for the state file
	sealed uint64                // journal sequence the state file on disk reflects (0 = none known)
}

// newTenant builds the seeded in-memory state for a validated config.
// It performs no journaling; the caller owns the create record.
func newTenant(srv *Server, id string, cfg TenantConfig, store *checkpoint.Store) (*tenant, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pc := cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack},
		Seed: cfg.Seed,
	}
	vc, err := cloud.NewProvider(pc).Provision(cfg.VMs, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	advCfg := core.AdvisorConfig{
		TimeStep:  cfg.Steps,
		Threshold: cfg.Threshold,
		Gap:       cfg.Gap,
	}
	if cfg.Resilient {
		advCfg.Calibration.Resilient = true
	}
	advSrc := stats.NewCountingSource(cfg.Seed + 2)
	adv := core.NewAdvisor(vc, rand.New(advSrc), advCfg)
	t := &tenant{
		id:      id,
		cfg:     cfg,
		pc:      pc,
		calCfg:  advCfg.Calibration,
		cluster: vc,
		adv:     adv,
		advSrc:  advSrc,
		store:   store,
		srv:     srv,
	}
	// Maintenance the regime detector fires autonomously must go through
	// the same memoized replica path as a client-requested calibrate, or
	// replays would measure on a different rng stream than the original.
	adv.SetRecalibrator(func(ctx context.Context) error {
		_, err := t.runCalibration(ctx)
		return err
	})
	return t, nil
}

// runCalibration measures (or replays from the shared memo) the
// tenant's next calibration trace on a throwaway replica cluster, then
// installs it. The replica is provisioned fresh from the key's seeds
// inside the compute closure, so whether the memo hits or misses leaves
// the tenant's live cluster and rng streams untouched — the property
// that keeps replay byte-identical regardless of cache state. The
// returned bool reports whether tenant state was mutated (the caller
// rebuilds from the journal when a mutation failed partway).
func (t *tenant) runCalibration(ctx context.Context) (mutated bool, err error) {
	key := cloud.CalibrationKey{
		Provider: t.pc,
		N:        t.cfg.VMs,
		ProvSeed: t.cfg.Seed + 1,
		RNGSeed:  t.cfg.Seed + 2 + (1+int64(t.calIndex))*1_000_003,
		Steps:    t.cfg.Steps,
		Gap:      t.cfg.Gap,
		Cal:      t.calCfg,
	}
	tc, err := t.srv.memo.GetOrComputeOwned(ctx, t.id, key, func() (*cloud.TemporalCalibration, error) {
		replica, err := cloud.NewProvider(key.Provider).Provision(key.N, key.ProvSeed)
		if err != nil {
			return nil, err
		}
		return cloud.CalibrateTPCtx(ctx, replica, stats.NewRNG(key.RNGSeed), key.Steps, key.Gap, key.Cal)
	})
	if err != nil {
		// Nothing installed: a failed measurement (typically a deadline)
		// leaves the tenant exactly as it was.
		return false, err
	}
	t.calIndex++
	// The tenant's own cluster pays the calibration's probe cost in
	// simulated time, as Algorithm 1 charges it.
	t.cluster.AdvanceTime(tc.TotalCost)
	return true, t.adv.AnalyzeCalibrationCtx(ctx, tc)
}

// applyOp executes one mutation against the tenant. mutated reports
// whether any state may have changed when err != nil — the shard
// rebuilds the tenant from its journal in that case, since a cancelled
// solver can leave the advisor half-updated.
func (t *tenant) applyOp(ctx context.Context, o op) (res opResult, mutated bool, err error) {
	switch o.Kind {
	case opCalibrate:
		mutated, err = t.runCalibration(ctx)
		return res, mutated, err
	case opObserve:
		if math.IsNaN(o.Expected) || math.IsNaN(o.Actual) {
			return res, false, errf("observe expected/actual must be numbers")
		}
		trig, err := t.adv.ObserveCtx(ctx, o.Expected, o.Actual)
		// ObserveCtx mutates the divergence tracker before any
		// maintenance runs, so any error is a possible partial mutation.
		return opResult{Triggered: trig}, err != nil, err
	case opAdvance:
		if o.Dt <= 0 || math.IsNaN(o.Dt) || math.IsInf(o.Dt, 0) {
			return res, false, errf("advance dt must be a positive number, got %v", o.Dt)
		}
		t.cluster.AdvanceTime(o.Dt)
		return res, false, nil
	case opStreamBegin:
		// The streaming session outlives this request: bind it to the
		// server's lifetime context, not the request deadline.
		return res, false, t.adv.BeginStreamingCtx(t.srv.baseCtx)
	case opStreamPair:
		n := t.cfg.VMs
		if o.Src < 0 || o.Src >= n || o.Dst < 0 || o.Dst >= n {
			return res, false, errf("stream pair (%d,%d) outside %d-VM cluster", o.Src, o.Dst, n)
		}
		if len(o.Lat) != t.cfg.Steps || len(o.Bw) != t.cfg.Steps {
			return res, false, errf("stream series must have %d samples, got lat=%d bw=%d", t.cfg.Steps, len(o.Lat), len(o.Bw))
		}
		err := t.adv.StreamPair(o.Src, o.Dst, o.Lat, o.Bw)
		return res, err != nil, err
	case opResolve:
		err := t.adv.PartialResolve()
		return res, err != nil, err
	}
	return res, false, errf("unknown op kind %q", o.Kind)
}

// journalOp appends the op to the tenant's store after it applied
// cleanly, then compacts when the tail has grown past the snapshot
// cadence.
func (t *tenant) journalOp(o op) error {
	payload, err := json.Marshal(o)
	if err != nil {
		return err
	}
	if _, err := t.store.Append(payload); err != nil {
		return err
	}
	if t.store.TailRecords() >= t.srv.cfg.SnapshotEvery {
		if err := t.store.Snapshot(); err != nil {
			return err
		}
		// The state file is a cache of the journal's effect: when sealing
		// it fails, the previous file (if any) stays valid for an older
		// sequence and restart replays the difference, so the op the
		// journal already holds is not failed for it.
		_ = t.sealState()
	}
	return nil
}

// rebuildTenant reconstructs a tenant from its store's record history:
// the create record declares the config; the base is the tenant's
// sealed state when a usable one exists (state.go) and a fresh tenant
// otherwise; every record after the base replays in order under the
// server's lifetime context. Any failure of the journal itself — a
// malformed record, a non-create head, a replay error — means it does
// not describe a reachable state, and the caller quarantines the
// tenant. A failure of the state file only means replay from create.
func rebuildTenant(srv *Server, id string, store *checkpoint.Store) (*tenant, error) {
	recs := store.Records()
	if len(recs) == 0 {
		return nil, fmt.Errorf("serve: tenant %s journal holds no create record", id)
	}
	var head op
	if err := json.Unmarshal(recs[0], &head); err != nil {
		return nil, fmt.Errorf("serve: tenant %s create record: %w", id, err)
	}
	if head.Kind != opCreate || head.Cfg == nil {
		return nil, fmt.Errorf("serve: tenant %s journal starts with %q, want create", id, head.Kind)
	}
	t, err := newTenant(srv, id, *head.Cfg, store)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s create replay: %w", id, err)
	}
	base, err := t.restoreState(recs)
	srv.noteRestore(id, err)
	if err != nil {
		base = 1
		if t, err = newTenant(srv, id, *head.Cfg, store); err != nil {
			return nil, fmt.Errorf("serve: tenant %s create replay: %w", id, err)
		}
	}
	for i := base; i < uint64(len(recs)); i++ {
		var o op
		if err := json.Unmarshal(recs[i], &o); err != nil {
			return nil, fmt.Errorf("serve: tenant %s record %d: %w", id, i+1, err)
		}
		if _, _, err := t.applyOp(srv.baseCtx, o); err != nil {
			return nil, fmt.Errorf("serve: tenant %s record %d (%s) replay: %w", id, i+1, o.Kind, err)
		}
	}
	return t, nil
}

// status snapshots the tenant's advisor state into the wire struct.
func (t *tenant) status() StatusResponse {
	h := t.adv.Health()
	return StatusResponse{
		Tenant:          t.id,
		VMs:             t.cfg.VMs,
		Seq:             t.store.Seq(),
		ClusterTime:     t.cluster.Now(),
		Calibrations:    t.adv.Calibrations(),
		Recalibrations:  t.adv.Recalibrations(),
		PartialResolves: t.adv.PartialResolves(),
		CalibrationCost: t.adv.CalibrationCost(),
		NormE:           t.adv.NormE(),
		Effectiveness:   t.adv.Effectiveness().String(),
		Confidence:      t.adv.Confidence().String(),
		Coverage:        h.Coverage,
		MeanQuality:     h.MeanQuality,
		OutlierRate:     h.OutlierRate,
		RetryExhaustion: h.RetryExhaustion,
		Streaming:       t.adv.StreamingActive(),
	}
}
