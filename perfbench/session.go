package main

// One benchmark run: set the daemon up (several times, for setup_s), drive
// the workload's timed phase open loop, drain and restart the daemon on
// the same journal, then run the workload's share of the experiment
// campaign.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"netconstant/internal/exp"
)

// Repetitions per untraced run; a traced run sets up and restarts once.
// setup_s and restart_s are medians over them.
const (
	setupReps    = 3
	restartReps  = 2
	latencyLimit = 20.0   // ms; the advise p99 objective of the ladder
	refRate      = 2000.0 // req/s; advise-read's reference offered rate
	warmup       = 500 * time.Millisecond
	// connections is the generator's connection count: nproc on the
	// reference 2-core machine. calibrate-mix gives one to mutations and
	// one to reads; set-up and advise-read use both for their requests.
	connections = 2
)

// ladderRates are advise-read's offered rates, low to high. On a 2-core
// machine the p99 objective has held up to about 7.5k req/s.
var ladderRates = []float64{2000, 4000, 6000, 8000, 10000}

// campaignSpec is the workload's share of the experiment campaign.
type campaignSpec struct {
	Args    []string
	Figures []string
}

// session holds one run's settings, measurements and check failures.
type session struct {
	workload string
	seed     int64
	seconds  int
	bin      string
	work     string
	tr       *tracer

	ts   []tenantSpec
	ep   *epochs
	rc   *repeatChecker
	errs []error

	mu                sync.Mutex // guards the counts below while set-up runs two lanes
	attempted, failed int
	ackedMutations    int64

	// measurements
	setup        []lap
	adviseRef    []float64 // advise latencies of the measured phase, ms
	adviseSegP50 []float64 // p50 of each measured segment or one-second window
	adviseSvc    []float64 // ... timed from the actual send
	writeSvc     []float64
	calibrateMs  []float64
	smallWriteMs []float64
	lateMs       []float64
	backlogMax   int
	cpuPerReqUs  float64
	phaseReqs    int
	ladder       []ladderStep
	restart      []lap
	rssByProc    []float64 // peak RSS of every daemon process: set-ups, then relaunches
	campaign     lap
	campaignCPU  float64
	campaignRSS  float64
	campaignOut  string
	genCPU       time.Duration
	queueMax     int
	shed         int64
	mutations    int64
	journalDir   string
	steal        float64  // host steal share over the run
	finalStatus  [][]byte // every tenant's status after the restart
	createSvc    []float64
}

func (s *session) fail(err error) { s.errs = append(s.errs, err) }

// count tallies a phase's requests into attempted/failed and the
// acknowledged-mutation count.
func (s *session) count(recs []record) {
	for _, r := range recs {
		s.attempted++
		if !r.ok() {
			s.failed++
			continue
		}
		if !isRead(r.Req.Kind) {
			s.ackedMutations++
		}
	}
}

// send issues one closed-loop request during set-up or verification and
// counts it; set-up calls it from two goroutines.
func (s *session) send(c *client, kind string, tenant int, body []byte) ([]byte, error) {
	method, p := path(kind, s.ts[tenant].ID)
	status, b, err := c.do(method, p, body)
	if err == nil && (status < 200 || status >= 300) {
		err = errStatus(kind+" "+s.ts[tenant].ID, status, b)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failed++
		return nil, err
	}
	if kind != kStatus {
		s.ackedMutations++
	}
	return b, nil
}

// setUp launches a daemon on a fresh journal directory, creates every
// tenant and calibrates each once, over two connections. It returns the
// running daemon and the set-up time.
func (s *session) setUp(dir string) (*daemon, lap, error) {
	watch := startWatch()
	d, err := startDaemon(filepath.Join(s.bin, "netconstantd"), dir)
	if err != nil {
		return nil, lap{}, err
	}
	errs := make([]error, connections)
	var wg sync.WaitGroup
	for lane := 0; lane < connections; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := newClient(d.addr)
			defer c.close()
			// Lanes take alternate tenants so both carry a 64-VM one.
			for i := lane; i < len(s.ts); i += connections {
				t0 := time.Now()
				_, err := s.send(c, "create", i, s.ts[i].createBody())
				s.mu.Lock()
				s.createSvc = append(s.createSvc, float64(time.Since(t0))/1e6)
				s.mu.Unlock()
				if err == nil {
					_, err = s.send(c, kCalibrate, i, nil)
				}
				if err != nil {
					errs[lane] = err
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	elapsed := watch.stop()
	if err := errors.Join(errs...); err != nil {
		d.kill()
		return nil, lap{}, fmt.Errorf("set-up: %w", err)
	}
	return d, elapsed, nil
}

// statuses fetches every tenant's status body in tenant order.
func (s *session) statuses(addr string) ([][]byte, error) {
	c := newClient(addr)
	defer c.close()
	out := make([][]byte, len(s.ts))
	for i := range s.ts {
		b, err := s.send(c, kStatus, i, nil)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// run executes the whole session. A returned error means the run could
// not be carried out; failed output checks are collected in s.errs.
func (s *session) run(ctx context.Context) error {
	s.ts = tenants()
	s.ep = newEpochs(len(s.ts))
	s.rc = newRepeatChecker()
	genCPU0, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	watch := startWatch()
	defer func() { s.steal = watch.stop().Steal }()

	// Set-up, several times: the last daemon stays up for the phase.
	var d *daemon
	nSetup, nRestart := setupReps, restartReps
	if s.tr != nil {
		nSetup, nRestart = 1, 1
	}
	for i := 0; i < nSetup; i++ {
		s.ackedMutations = 0
		dir := filepath.Join(s.work, fmt.Sprintf("journal-%d", i))
		var lap lap
		d, lap, err = s.setUp(dir)
		if err != nil {
			return err
		}
		s.setup = append(s.setup, lap)
		s.journalDir = dir
		if i < nSetup-1 {
			rss, err := d.peakRSSMB()
			if err != nil {
				d.kill()
				return err
			}
			s.rssByProc = append(s.rssByProc, rss)
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	var hs *healthSampler
	if s.tr != nil {
		hs = startHealthSampler(d.addr, 20*time.Millisecond)
	}
	rng := rand.New(rand.NewPCG(uint64(s.seed), 0x5eed))
	warm := runSchedule(ctx, d.addr, s.ts, readSchedule(rng, refRate/4, warmup, connections, 0, len(s.ts)), s.ep, nil, 0)
	s.count(warm.Records)
	s.checkPhase(warm.Records)

	timed := time.Duration(s.seconds) * time.Second
	switch s.workload {
	case "advise-read":
		err = s.adviseRead(ctx, d, rng, timed)
	case "calibrate-mix":
		err = s.calibrateMix(ctx, d, rng, timed)
	}
	if hs != nil {
		hs.finish()
		s.queueMax = hs.queueMax
	}
	if err != nil {
		return err
	}

	// Every acknowledged mutation must be counted by the daemon exactly,
	// and no tenant's journal may have been quarantined.
	hc := newClient(d.addr)
	h, err := getHealth(hc)
	hc.close()
	if err != nil {
		return err
	}
	s.mutations, s.shed = h.totals()
	if s.mutations != s.ackedMutations {
		s.fail(fmt.Errorf("healthz counts %d mutations, the generator had %d acknowledged", s.mutations, s.ackedMutations))
	}
	if len(h.Quarantined) > 0 {
		s.fail(fmt.Errorf("healthz reports quarantined tenants %v", h.Quarantined))
	}
	before, err := s.statuses(d.addr)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	s.rssByProc = append(s.rssByProc, rss)

	// Drain and relaunch on the same journal directory, several times;
	// every relaunch must reproduce the pre-drain statuses exactly.
	for i := 0; i < nRestart; i++ {
		watch := startWatch()
		err := d.stop()
		d = nil
		if err != nil {
			return err
		}
		if d, err = startDaemon(filepath.Join(s.bin, "netconstantd"), s.journalDir); err != nil {
			return err
		}
		after, err := s.statuses(d.addr)
		if err != nil {
			return err
		}
		s.restart = append(s.restart, watch.stop())
		s.finalStatus = after
		for j := range before {
			if string(before[j]) != string(after[j]) {
				s.fail(fmt.Errorf("tenant %s status changed across a restart:\n  before %s  after  %s", s.ts[j].ID, before[j], after[j]))
			}
		}
		rss, err := d.peakRSSMB()
		if err != nil {
			return err
		}
		s.rssByProc = append(s.rssByProc, rss)
	}
	err = d.stop()
	d = nil
	if err != nil {
		return err
	}
	genCPU1, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	s.genCPU = genCPU1 - genCPU0
	return s.runCampaign(ctx)
}

// checkPhase runs the output checks over a phase's records.
func (s *session) checkPhase(recs []record) {
	for _, err := range checkRecords(recs, s.ts, s.rc) {
		s.fail(err)
	}
}

// adviseRead: reads only. Pairs of short segments at the reference rate
// alternate with the ladder's steps, so the reference figures sample the
// whole phase rather than one stretch of it; on a host whose speed
// drifts over seconds, the median of the segments' p50s is steadier
// than one pooled p50.
func (s *session) adviseRead(ctx context.Context, d *daemon, rng *rand.Rand, timed time.Duration) error {
	segDur := timed * 4 / 10 / time.Duration(2*len(ladderRates))
	stepDur := timed * 6 / 10 / time.Duration(len(ladderRates))
	var cpu time.Duration
	done := 0
	for i, rate := range ladderRates {
		for seg := 0; seg < 2; seg++ {
			var ref phaseResult
			c, err := daemonCPU(d, func() {
				ref = runSchedule(ctx, d.addr, s.ts, readSchedule(rng, refRate, segDur, connections, 0, len(s.ts)), s.ep, s.tr, int64(4*i+seg)<<40)
			})
			if err != nil {
				return err
			}
			cpu += c
			done += completed(ref.Records)
			s.count(ref.Records)
			s.checkPhase(ref.Records)
			s.absorb(ref)
			s.phaseReqs += len(ref.Records)
		}

		// A step runs long enough for its p99 to rest on ten samples.
		dur := max(stepDur, time.Duration(1100/rate*float64(time.Second)))
		step := runSchedule(ctx, d.addr, s.ts, readSchedule(rng, rate, dur, connections, 0, len(s.ts)), s.ep, s.tr, int64(4*i+3)<<40)
		s.count(step.Records)
		s.checkPhase(step.Records)
		var lat []float64
		failed := 0
		for _, r := range step.Records {
			if !r.ok() {
				failed++
				continue
			}
			if r.Req.Kind == kAdvise {
				lat = append(lat, r.latencyMs())
			}
		}
		s.ladder = append(s.ladder, ladderStep{Rate: rate, P99: percentileOf(lat, 99), Failed: failed, Backlog: growingBacklog(step.Records)})
	}
	s.cpuPerReqUs = float64(cpu) / 1e3 / float64(max(1, done))
	return nil
}

// daemonCPU runs fn and returns the daemon's CPU time meanwhile.
func daemonCPU(d *daemon, fn func()) (time.Duration, error) {
	c0, err := d.cpu()
	if err != nil {
		return 0, err
	}
	fn()
	c1, err := d.cpu()
	if err != nil {
		return 0, err
	}
	return c1 - c0, nil
}

// calibrateMix: mutations on lane 0 and advise reads on lane 1.
func (s *session) calibrateMix(ctx context.Context, d *daemon, rng *rand.Rand, timed time.Duration) error {
	var ph phaseResult
	cpu, err := daemonCPU(d, func() {
		ph = runSchedule(ctx, d.addr, s.ts, mixSchedule(rng, s.ts, timed, defaultMix), s.ep, s.tr, 0)
	})
	if err != nil {
		return err
	}
	s.count(ph.Records)
	s.checkPhase(ph.Records)
	s.absorb(ph)
	s.cpuPerReqUs = float64(cpu) / 1e3 / float64(max(1, completed(ph.Records)))
	s.phaseReqs = len(ph.Records)
	return nil
}

// absorb keeps the measured phase's latencies by request class, and the
// advise p50 of every window of at most one second of the phase.
func (s *session) absorb(ph phaseResult) {
	windows := map[int64][]float64{}
	for _, r := range ph.Records {
		if r.ok() && r.Req.Kind == kAdvise {
			w := int64(r.Req.At / time.Second)
			windows[w] = append(windows[w], r.latencyMs())
		}
	}
	keys := make([]int64, 0, len(windows))
	for w := range windows {
		keys = append(keys, w)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, w := range keys {
		s.adviseSegP50 = append(s.adviseSegP50, summarize(windows[w]).Median)
	}
	s.backlogMax = max(s.backlogMax, ph.BacklogMax)
	for _, r := range ph.Records {
		s.lateMs = append(s.lateMs, r.lateMs())
		if !r.ok() {
			continue
		}
		switch {
		case r.Req.Kind == kAdvise:
			s.adviseRef = append(s.adviseRef, r.latencyMs())
			s.adviseSvc = append(s.adviseSvc, r.serviceMs())
		case r.Req.Kind == kCalibrate:
			s.calibrateMs = append(s.calibrateMs, r.latencyMs())
		case isSmallWrite(r.Req.Kind):
			s.smallWriteMs = append(s.smallWriteMs, r.latencyMs())
			s.writeSvc = append(s.writeSvc, r.serviceMs())
		}
	}
}

func completed(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.ok() {
			n++
		}
	}
	return n
}

// growingBacklog reports whether the generator fell further behind over
// the step: the median lateness of the last tenth of requests exceeds
// that of the first tenth by more than the latency limit.
func growingBacklog(recs []record) bool {
	sorted := append([]record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Req.At < sorted[j].Req.At })
	n := len(sorted) / 10
	if n == 0 {
		return false
	}
	late := func(rs []record) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = r.lateMs()
		}
		return summarize(v).Median
	}
	return late(sorted[len(sorted)-n:])-late(sorted[:n]) > latencyLimit
}

// campaigns: advise-read carries the quick profile of every figure (RPCA
// heavy), calibrate-mix the paper-scale fabric figures (simnet heavy).
func campaignFor(workload string, workers int) campaignSpec {
	w := fmt.Sprint(workers)
	if workload == "advise-read" {
		var figs []string
		for _, f := range exp.Figures() {
			figs = append(figs, f.Name)
		}
		return campaignSpec{Args: []string{"-seed", "1", "-workers", w}, Figures: figs}
	}
	return campaignSpec{Args: []string{"-seed", "1", "-workers", w, "-full", "-only", "ext-clos,fig12"}, Figures: []string{"fig12", "ext-clos"}}
}

// runCampaign runs expdriver as its own process and checks its tables.
func (s *session) runCampaign(ctx context.Context) error {
	spec := campaignFor(s.workload, nproc())
	cmd := exec.CommandContext(ctx, filepath.Join(s.bin, "expdriver"), spec.Args...)
	cmd.SysProcAttr = orphanKill()
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	watch := startWatch()
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("expdriver %v: %v: %s", spec.Args, err, errb.String())
	}
	s.campaign = watch.stop()
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return errors.New("expdriver: no rusage")
	}
	s.campaignCPU = (time.Duration(ru.Utime.Nano()) + time.Duration(ru.Stime.Nano())).Seconds()
	s.campaignRSS = float64(ru.Maxrss) / 1024
	s.campaignOut = out.String()
	names, tables, _ := campaignTables(s.campaignOut)
	s.attempted += len(spec.Figures)
	for _, err := range checkCampaign(names, tables, spec.Figures) {
		s.failed++
		s.fail(err)
	}
	return nil
}

// writeJSON stores v as indented JSON at path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
