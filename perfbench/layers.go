package main

// The traced run's in-process half: the session's journaled operations
// replayed through cloud, core and checkpoint exactly as the daemon
// applies them, standalone rpca and mat calls on the TP matrices that
// replay produced, the campaign's figures called in process, and
// standalone simnet runs on the campaign's fabrics. Spans are recorded
// only here, around the exported calls; nothing inside the program is
// instrumented.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"netconstant/internal/checkpoint"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/exp"
	"netconstant/internal/mat"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/simnet"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// layers holds the per-layer measurements of a traced run.
type layers struct {
	planUs      map[int][]float64 // by tenant size
	recalibs    int
	decomposeMs map[string][]float64 // by TP shape
	iterations  int
	svtFull     int
	svtTrunc    int
	memoHits    int
	memoMisses  int
	recordBytes []float64
	activeFlows int
	refillComps int
	flowUs      []float64 // per-flow lifecycle time, one value per fabric
	expPoints   int64
	expMemo     cloud.MemoStats
	figureS     map[string]float64
	kernels     []kernelCost
}

// kernelCost is one mat kernel's work per call, computed from its shape.
type kernelCost struct {
	Span  string  `json:"span"`
	Shape string  `json:"shape"`
	Flops float64 `json:"flops_computed"`
	Bytes float64 `json:"bytes_computed"`
}

// journalOp mirrors the daemon's journal record (internal/serve's op).
type journalOp struct {
	Kind string `json:"kind"`
	Cfg  *struct {
		VMs            int     `json:"vms"`
		Seed           int64   `json:"seed"`
		Steps          int     `json:"steps"`
		Racks          int     `json:"racks"`
		ServersPerRack int     `json:"servers_per_rack"`
		Gap            float64 `json:"gap"`
		Threshold      float64 `json:"threshold"`
		Resilient      bool    `json:"resilient"`
	} `json:"cfg,omitempty"`
	Expected float64   `json:"expected,omitempty"`
	Actual   float64   `json:"actual,omitempty"`
	Dt       float64   `json:"dt,omitempty"`
	Src      int       `json:"src,omitempty"`
	Dst      int       `json:"dst,omitempty"`
	Lat      []float64 `json:"lat,omitempty"`
	Bw       []float64 `json:"bw,omitempty"`
}

// replayTenant is one tenant rebuilt in process.
type replayTenant struct {
	id       string
	vms      int
	pc       cloud.ProviderConfig
	calCfg   cloud.CalibrationConfig
	seed     int64
	steps    int
	gap      float64
	cluster  *cloud.VirtualCluster
	adv      *core.Advisor
	calIndex int
}

func runLayers(ctx context.Context, s *session) (*layers, error) {
	l := &layers{
		planUs:      map[int][]float64{},
		decomposeMs: map[string][]float64{},
		figureS:     map[string]float64{},
	}
	tps, err := l.replay(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := l.solvers(s.tr, tps); err != nil {
		return nil, err
	}
	if err := l.figures(ctx, s); err != nil {
		return nil, err
	}
	if err := l.fabrics(s); err != nil {
		return nil, err
	}
	return l, nil
}

// replay rebuilds every tenant from a copy of the session's journal
// directory, re-applying each journaled op with spans, and re-journals
// the ops into a fresh store to time appends. It returns the distinct
// TP matrices the calibrations produced.
func (l *layers) replay(ctx context.Context, s *session) ([]*netmodel.TPMatrix, error) {
	tr := s.tr
	src := filepath.Join(s.work, "replay-src")
	if err := copyDir(s.journalDir, src); err != nil {
		return nil, err
	}
	memo := cloud.NewCalibrationMemo(64)
	seen := map[cloud.CalibrationKey]bool{}
	var tps []*netmodel.TPMatrix
	var replayed []*replayTenant
	for _, t := range s.ts {
		id := t.ID
		root := tr.begin("replay.tenant", -1)
		var recs [][]byte
		var openErr error
		tr.timed("checkpoint.replay", root, func() {
			st, err := checkpoint.OpenStore(filepath.Join(src, id+".nclog"), filepath.Join(src, id+".ncsnap"))
			if err != nil {
				openErr = err
				return
			}
			recs = st.Records()
			openErr = st.Close()
		})
		if openErr != nil {
			return nil, openErr
		}
		out, err := checkpoint.OpenStore(filepath.Join(s.work, "rejournal-"+id+".nclog"), filepath.Join(s.work, "rejournal-"+id+".ncsnap"))
		if err != nil {
			return nil, err
		}
		var rt *replayTenant
		for i, rec := range recs {
			var o journalOp
			if err := json.Unmarshal(rec, &o); err != nil {
				out.Close()
				return nil, fmt.Errorf("%s record %d: %w", id, i+1, err)
			}
			if i == 0 {
				if o.Kind != "create" || o.Cfg == nil {
					out.Close()
					return nil, fmt.Errorf("%s journal starts with %q", id, o.Kind)
				}
				rt, err = newReplayTenant(id, o)
			} else {
				err = rt.apply(ctx, tr, root, memo, o, func(key cloud.CalibrationKey, tc *cloud.TemporalCalibration) {
					if !seen[key] {
						seen[key] = true
						tps = append(tps, tc.Latency, tc.Bandwidth)
					}
				})
			}
			if err != nil {
				out.Close()
				return nil, fmt.Errorf("%s record %d (%s): %w", id, i+1, o.Kind, err)
			}
			l.recordBytes = append(l.recordBytes, float64(len(rec)))
			var appendErr error
			tr.timed("checkpoint.append", root, func() { _, appendErr = out.Append(rec) })
			if appendErr == nil && out.TailRecords() >= 64 {
				tr.timed("checkpoint.snapshot", root, func() { appendErr = out.Snapshot() })
			}
			if appendErr != nil {
				out.Close()
				return nil, appendErr
			}
		}
		tr.timed("checkpoint.snapshot", root, func() { err = out.Snapshot() })
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		tr.end(root)
		replayed = append(replayed, rt)
	}
	st := memo.Stats()
	l.memoHits, l.memoMisses = st.Hits, st.Misses

	// The replayed state must be the daemon's: same calibration counts.
	for i, rt := range replayed {
		l.recalibs += rt.adv.Recalibrations()
		var want struct {
			Calibrations    int `json:"calibrations"`
			Recalibrations  int `json:"recalibrations"`
			PartialResolves int `json:"partial_resolves"`
		}
		if err := json.Unmarshal(s.finalStatus[i], &want); err != nil {
			return nil, err
		}
		if want.Calibrations != rt.adv.Calibrations() || want.Recalibrations != rt.adv.Recalibrations() || want.PartialResolves != rt.adv.PartialResolves() {
			s.fail(fmt.Errorf("replay of %s diverged from the daemon: %d/%d/%d calibrations/recalibrations/resolves, daemon %d/%d/%d",
				rt.id, rt.adv.Calibrations(), rt.adv.Recalibrations(), rt.adv.PartialResolves(), want.Calibrations, want.Recalibrations, want.PartialResolves))
		}
	}
	// Standalone core calls on the replayed advisors.
	for _, rt := range replayed {
		rt.planAll(tr, l)
		if err := rt.maintain(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", rt.id, err)
		}
	}
	return tps, nil
}

func newReplayTenant(id string, o journalOp) (*replayTenant, error) {
	c := o.Cfg
	pc := cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: c.Racks, ServersPerRack: c.ServersPerRack}, Seed: c.Seed}
	vc, err := cloud.NewProvider(pc).Provision(c.VMs, c.Seed+1)
	if err != nil {
		return nil, err
	}
	advCfg := core.AdvisorConfig{TimeStep: c.Steps, Threshold: c.Threshold, Gap: c.Gap}
	advCfg.Calibration.Resilient = c.Resilient
	return &replayTenant{
		id: id, vms: c.VMs, pc: pc, calCfg: advCfg.Calibration, seed: c.Seed, steps: c.Steps, gap: c.Gap,
		cluster: vc, adv: core.NewAdvisor(vc, stats.NewRNG(c.Seed+2), advCfg),
	}, nil
}

// calibrate mirrors the daemon's memoized calibration on a throwaway
// replica, with the same per-calibration seed derivation.
func (rt *replayTenant) calibrate(ctx context.Context, tr *tracer, parent int, memo *cloud.CalibrationMemo, got func(cloud.CalibrationKey, *cloud.TemporalCalibration)) error {
	key := cloud.CalibrationKey{
		Provider: rt.pc, N: rt.vms, ProvSeed: rt.seed + 1,
		RNGSeed: rt.seed + 2 + (1+int64(rt.calIndex))*1_000_003,
		Steps:   rt.steps, Gap: rt.gap, Cal: rt.calCfg,
	}
	tc, err := memo.GetOrComputeOwned(ctx, rt.id, key, func() (*cloud.TemporalCalibration, error) {
		replica, err := cloud.NewProvider(key.Provider).Provision(key.N, key.ProvSeed)
		if err != nil {
			return nil, err
		}
		var tc *cloud.TemporalCalibration
		tr.timed("cloud.calibrate_tp", parent, func() {
			tc, err = cloud.CalibrateTPCtx(ctx, replica, stats.NewRNG(key.RNGSeed), key.Steps, key.Gap, key.Cal)
		})
		return tc, err
	})
	if err != nil {
		return err
	}
	got(key, tc)
	rt.calIndex++
	rt.cluster.AdvanceTime(tc.TotalCost)
	tr.timed("core.analyze", parent, func() { err = rt.adv.AnalyzeCalibrationCtx(ctx, tc) })
	return err
}

// apply re-applies one journaled op.
func (rt *replayTenant) apply(ctx context.Context, tr *tracer, parent int, memo *cloud.CalibrationMemo, o journalOp, got func(cloud.CalibrationKey, *cloud.TemporalCalibration)) error {
	switch o.Kind {
	case "calibrate":
		id := tr.begin("op.calibrate", parent)
		defer tr.end(id)
		return rt.calibrate(ctx, tr, id, memo, got)
	case "observe":
		id := tr.begin("core.observe", parent)
		defer tr.end(id)
		rt.adv.SetRecalibrator(func(ctx context.Context) error { return rt.calibrate(ctx, tr, id, memo, got) })
		_, err := rt.adv.ObserveCtx(ctx, o.Expected, o.Actual)
		return err
	case "advance":
		rt.cluster.AdvanceTime(o.Dt)
		return nil
	case "stream-begin":
		return rt.adv.BeginStreamingCtx(ctx)
	case "stream-pair":
		var err error
		tr.timed("core.stream_pair", parent, func() { err = rt.adv.StreamPair(o.Src, o.Dst, o.Lat, o.Bw) })
		return err
	case "partial-resolve":
		var err error
		tr.timed("core.partial_resolve", parent, func() { err = rt.adv.PartialResolve() })
		return err
	}
	return fmt.Errorf("unknown op kind %q", o.Kind)
}

var strategyOf = map[string]core.Strategy{
	"rpca": core.RPCA, "heuristics": core.Heuristics, "baseline": core.Baseline, "topology": core.TopologyAware,
}

// planAll times PlanTree+ExpectedTime over the tenant's whole advise key
// space, twice.
func (rt *replayTenant) planAll(tr *tracer, l *layers) {
	for rep := 0; rep < 2; rep++ {
		for _, st := range keyStrategies {
			for _, root := range keyRoots {
				for _, mb := range keyMsgBytes {
					t0 := time.Now()
					tree := rt.adv.PlanTree(strategyOf[st], root, mb, nil, nil)
					rt.adv.ExpectedTime(tree, mpi.Broadcast, mb)
					t1 := time.Now()
					tr.record("core.plan", -1, int64(rt.vms), t0, t1)
					l.planUs[rt.vms] = append(l.planUs[rt.vms], float64(t1.Sub(t0))/1e3)
				}
			}
		}
	}
}

// maintain times the small maintenance calls on the replayed advisor:
// non-triggering observes, a streaming session's pair updates and one
// partial resolve. It runs last, so the state it leaves is not compared.
func (rt *replayTenant) maintain(ctx context.Context, tr *tracer) error {
	rt.adv.SetRecalibrator(func(context.Context) error { return fmt.Errorf("unexpected recalibration") })
	for i := 0; i < 20; i++ {
		var err error
		tr.timed("core.observe", -1, func() { _, err = rt.adv.ObserveCtx(ctx, 1, 1.01) })
		if err != nil {
			return err
		}
	}
	if !rt.adv.StreamingActive() {
		if err := rt.adv.BeginStreamingCtx(ctx); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewPCG(uint64(rt.seed), 3))
	for i := 0; i < 20; i++ {
		var o journalOp
		if err := json.Unmarshal(streamPairBody(rng, rt.vms), &o); err != nil {
			return err
		}
		var err error
		tr.timed("core.stream_pair", -1, func() { err = rt.adv.StreamPair(o.Src, o.Dst, o.Lat, o.Bw) })
		if err != nil {
			return err
		}
	}
	var err error
	tr.timed("core.partial_resolve", -1, func() { err = rt.adv.PartialResolve() })
	return err
}

// solvers times standalone rpca and mat calls on the replay's TP
// matrices. As in the advisor, one solver per shape is reused across
// solves, so its warm truncated SVT route can engage.
func (l *layers) solvers(tr *tracer, tps []*netmodel.TPMatrix) error {
	var biggest *mat.Dense
	perShape := map[string]*rpca.Solver{}
	for _, tp := range tps {
		m := tp.Matrix()
		r, c := m.Dims()
		shape := fmt.Sprintf("%dx%d", r, c)
		solver := perShape[shape]
		if solver == nil {
			solver = rpca.NewSolver()
			perShape[shape] = solver
		}
		full0, trunc0 := solver.SVTStats()
		t0 := time.Now()
		res, err := solver.Decompose(m, rpca.Options{})
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("rpca %s: %w", shape, err)
		}
		tr.record("rpca.decompose", -1, 0, t0, t1)
		l.decomposeMs[shape] = append(l.decomposeMs[shape], float64(t1.Sub(t0))/1e6)
		l.iterations += res.Iterations
		full, trunc := solver.SVTStats()
		l.svtFull += full - full0
		l.svtTrunc += trunc - trunc0
		if biggest == nil || r*c > biggest.Rows()*biggest.Cols() {
			biggest = m
		}
	}
	if biggest == nil {
		return fmt.Errorf("replay produced no TP matrix")
	}
	// Streaming: seed with half the columns of the smallest-width matrix
	// of the biggest shape, append the rest one by one.
	r, c := biggest.Dims()
	ss, err := rpca.NewStreamingSolver(r, rpca.StreamOptions{})
	if err != nil {
		return err
	}
	half := c / 2
	seedM := mat.NewDense(r, half)
	for i := 0; i < r; i++ {
		for j := 0; j < half; j++ {
			seedM.Set(i, j, biggest.At(i, j))
		}
	}
	if err := ss.Seed(seedM); err != nil {
		return err
	}
	for j := half; j < min(c, half+256); j++ {
		col := biggest.Col(j)
		var err error
		tr.timed("rpca.stream_append", -1, func() { err = ss.AppendColumn(col) })
		if err != nil {
			return err
		}
	}

	// Kernels at the biggest TP shape (r × c, r = time steps).
	rf, cf := float64(r), float64(c)
	out := mat.NewDense(r, c)
	ws := mat.NewSVTWorkspace()
	tau := 0.1 * biggest.NormSpectral()
	bt := biggest.T()
	prod := mat.NewDense(r, r)
	gram := mat.NewDense(r, r)
	for i := 0; i < 20; i++ {
		tr.timed("mat.svt", -1, func() { ws.SVTInto(out, biggest, tau) })
		tr.timed("mat.mul", -1, func() { mat.MulInto(prod, biggest, bt) })
		tr.timed("mat.gram", -1, func() { mat.GramInto(gram, biggest) })
		tr.timed("mat.eig", -1, func() { mat.EigSym(gram) })
	}
	// Operation counts and bytes moved per call, computed from the shapes
	// (not counted by hardware): float64 multiply-adds as two flops, and
	// each operand read and result written once.
	shape := fmt.Sprintf("%dx%d", r, c)
	l.kernels = []kernelCost{
		{"mat.svt", shape, 2*rf*rf*cf + 9*rf*rf*rf + 2*rf*rf*cf, 8 * 2 * rf * cf}, // Gram, eigensolve (Jacobi, order of magnitude), reconstruct
		{"mat.mul", shape, 2 * rf * cf * rf, 8 * (2*rf*cf + rf*rf)},
		{"mat.gram", shape, rf * rf * cf, 8 * (rf*cf + rf*rf)},
		{"mat.eig", fmt.Sprintf("%dx%d", r, r), 9 * rf * rf * rf, 8 * 2 * rf * rf},
	}
	return nil
}

// figures calls the campaign's figures in process at one worker and
// requires their tables to be byte-identical to the expdriver run's.
func (l *layers) figures(ctx context.Context, s *session) error {
	spec := campaignFor(s.workload, nproc())
	cfg := exp.Quick()
	if s.workload != "advise-read" {
		cfg = exp.Full()
	}
	cfg.Seed = 1
	cfg.Workers = 1
	cfg.Clock = time.Now
	cfg.Memo = cloud.NewCalibrationMemo(0)
	cfg.Ctx = ctx
	var points atomic.Int64
	cfg.PointHook = func(string, int) { points.Add(1) }
	_, want, _ := campaignTables(s.campaignOut)
	wanted := map[string]bool{}
	for _, f := range spec.Figures {
		wanted[f] = true
	}
	for _, fig := range exp.Figures() {
		if !wanted[fig.Name] {
			continue
		}
		var tables []*exp.Table
		var err error
		t0 := time.Now()
		tables, err = fig.Run(cfg)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.Name, err)
		}
		s.tr.record("exp.figure."+fig.Name, -1, 0, t0, t1)
		l.figureS[fig.Name] = t1.Sub(t0).Seconds()
		var b strings.Builder
		b.WriteString("\n")
		for _, t := range tables {
			// expdriver prints each table with Println.
			b.WriteString(wallNote.ReplaceAllString(t.String(), "took <wall> s wall clock"))
			b.WriteString("\n")
		}
		got := strings.TrimRight(b.String(), "\n")
		if got != strings.TrimRight(want[fig.Name], "\n") {
			dump := filepath.Join(s.work, "..", "mismatch-"+fig.Name)
			os.WriteFile(dump+".inprocess.txt", []byte(got), 0o644)            // diagnostics only
			os.WriteFile(dump+".expdriver.txt", []byte(want[fig.Name]), 0o644) // diagnostics only
			s.fail(fmt.Errorf("figure %s: in-process -workers 1 tables differ from the expdriver run's (see %s.*.txt)", fig.Name, dump))
		}
	}
	l.expPoints = points.Load()
	l.expMemo = cfg.Memo.Stats()
	return nil
}

// fabrics times simnet flow lifecycles on the campaign's fabrics: the
// ext-clos Clos fabric and fig12's tree, 512 seeded flows each, started
// together, activated (each activation refills max-min rates), then
// drained.
func (l *layers) fabrics(s *session) error {
	clos, err := topo.NewClosE(topo.ClosShape(4096))
	if err != nil {
		return err
	}
	tree := topo.NewTree(topo.TreeConfig{Racks: 32, ServersPerRack: 32})
	rng := rand.New(rand.NewPCG(uint64(s.seed), 12))
	const flowsPer = 512
	for _, fab := range []*topo.Topology{clos, tree} {
		sim := simnet.New(fab)
		servers := fab.Servers()
		flows := make([]*simnet.Flow, 0, flowsPer)
		t0 := time.Now()
		s.tr.timed("simnet.start_flows", -1, func() {
			for i := 0; i < flowsPer; i++ {
				a := servers[rng.IntN(len(servers))]
				b := servers[rng.IntN(len(servers))]
				for b == a {
					b = servers[rng.IntN(len(servers))]
				}
				flows = append(flows, sim.StartFlow(a, b, float64(1+rng.IntN(8))*(1<<20), nil))
			}
		})
		// Propagation latencies are microseconds and transfers take
		// milliseconds of simulated time: one millisecond activates every
		// flow and finishes none.
		s.tr.timed("simnet.activate", -1, func() { sim.Eng.RunUntil(sim.Now() + 1e-3) })
		l.activeFlows += sim.ActiveFlows()
		comps, _ := sim.RefillAll()
		l.refillComps += comps
		s.tr.timed("simnet.drain", -1, func() {
			for _, f := range flows {
				sim.RunUntilDone(f)
			}
		})
		l.flowUs = append(l.flowUs, float64(time.Since(t0))/1e3/flowsPer)
		if err := sim.CheckInvariants(); err != nil {
			s.fail(fmt.Errorf("simnet: %w", err))
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
