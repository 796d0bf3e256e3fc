package main

// The report: every metric by name, unit and sample count with its
// quartiles, the run context, and — as the last stdout line — the JSON
// object BENCHMARK.json's runner reads: correct, attempted, failed and
// the metrics by name.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`  // samples behind the value
	Q1    float64 `json:"q1"` // quartiles of those samples
	Q3    float64 `json:"q3"`
	Note  string  `json:"note,omitempty"`
	// Samples keeps the values behind a metric of a few repetitions.
	Samples []float64 `json:"-"`
	// Quartiles is set when Q1 and Q3 describe the samples behind Value.
	Quartiles bool `json:"-"`
}

// runContext is recorded with every report.
type runContext struct {
	Workload       string           `json:"workload"`
	Seed           int64            `json:"seed"`
	Seconds        int              `json:"seconds"`
	Trace          bool             `json:"trace"`
	NProc          int              `json:"nproc"`
	GenGOMAXPROCS  int              `json:"generator_gomaxprocs"`
	ProgGOMAXPROCS string           `json:"program_gomaxprocs"`
	GoVersion      string           `json:"go_version"`
	Revision       string           `json:"revision"`
	SourceDigest   string           `json:"source_sha256"`
	StealShare     float64          `json:"host_steal_share"` // CPU time the host withheld from this VM during the run
	RSSByProcMB    []float64        `json:"rss_by_daemon_mb"`
	Laps           map[string][]lap `json:"laps"`
	SetupReps      int              `json:"setup_reps"`
	RestartReps    int              `json:"restart_reps"`
	LadderSteps    int              `json:"ladder_steps"`
	Connections    int              `json:"connections"`
}

type report struct {
	Context   runContext         `json:"context"`
	EndToEnd  []metric           `json:"end_to_end"` // gated by BENCHMARK.json
	Extra     []metric           `json:"extra"`      // workload-specific, printed only
	PerLayer  []metric           `json:"per_layer"`
	Ladder    []ladderStep       `json:"ladder,omitempty"`
	Overhead  []metric           `json:"tracing_overhead,omitempty"`
	SelfMs    map[string]float64 `json:"self_ms_by_span,omitempty"`
	Kernels   []kernelCost       `json:"kernels,omitempty"`
	Checks    []string           `json:"failed_checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	trace     bool
	kernelUs  map[string]float64 // median µs per kernel span
}

// timing builds a metric from samples with value = the given quantile.
func timing(name, unit string, samples []float64, q float64) metric {
	sm := summarize(samples)
	v := math.NaN()
	if len(samples) > 0 {
		s := append([]float64(nil), samples...)
		sort.Float64s(s)
		v = quantile(s, q)
	}
	m := metric{Name: name, Unit: unit, Value: v, N: sm.N, Q1: sm.Q1, Q3: sm.Q3, Quartiles: sm.N > 1}
	if len(samples) <= 5 {
		m.Samples = samples
	}
	return m
}

// tail reports the requested high percentile when the sample supports
// it, else the highest supported one, naming it in the note.
func tail(name, unit string, samples []float64, p float64) metric {
	m := timing(name, unit, samples, p/100)
	if !supports(len(samples), p) {
		hp := highestPercentile(len(samples))
		if hp == 0 {
			m.Value, m.Note = math.NaN(), fmt.Sprintf("p%g unsupported: %d samples", p, len(samples))
			return m
		}
		m = timing(name, unit, samples, hp/100)
		m.Note = fmt.Sprintf("p%g unsupported by %d samples; p%g reported", p, len(samples), hp)
	}
	return m
}

func single(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, N: 1}
}

func buildReport(s *session, l *layers) *report {
	r := &report{
		Context:   context0(s),
		Attempted: s.attempted,
		Failed:    s.failed,
		trace:     s.tr != nil,
		Ladder:    s.ladder,
	}
	for _, e := range s.errs {
		r.Checks = append(r.Checks, e.Error())
	}
	r.EndToEnd = []metric{
		timing("setup_s", "s", nets(s.setup), 0.5),
		{Name: "cpu_per_req_us", Unit: "us", Value: s.cpuPerReqUs, N: s.phaseReqs},
		timing("restart_s", "s", nets(s.restart), 0.5),
		single("campaign_s", "s", s.campaign.Net()),
		single("campaign_cpu_s", "s", s.campaignCPU),
		timing("peak_rss_mb", "MB", s.rssByProc, 0.5),
	}
	fail := 0.0
	if s.attempted > 0 {
		fail = float64(s.failed) / float64(s.attempted)
	}
	r.Extra = append(r.Extra,
		timing("advise_p50_ms", "ms", s.adviseSegP50, 0.5),
		tail("advise_p99_ms", "ms", s.adviseRef, 99),
		timing("setup_wall_s", "s", walls(s.setup), 0.5),
		timing("restart_wall_s", "s", walls(s.restart), 0.5),
		single("campaign_wall_s", "s", s.campaign.Wall),
		single("campaign_rss_mb", "MB", s.campaignRSS),

		metric{Name: "fail_ratio", Unit: "ratio", Value: fail, N: s.attempted})
	if s.workload == "advise-read" {
		m := single("advise_max_rps", "req/s", maxRate(s.ladder, latencyLimit))
		m.N = len(s.ladder)
		r.Extra = append(r.Extra, m)
	} else {
		r.Extra = append(r.Extra,
			timing("calibrate_p50_ms", "ms", s.calibrateMs, 0.5),
			tail("calibrate_p90_ms", "ms", s.calibrateMs, 90),
			timing("write_p50_ms", "ms", s.smallWriteMs, 0.5),
			tail("write_p99_ms", "ms", s.smallWriteMs, 99),
		)
	}
	if l != nil {
		r.PerLayer = perLayer(s, l)
		r.SelfMs = layerSelf(s.tr.spans)
		r.Kernels = l.kernels
		r.kernelUs = map[string]float64{}
		for _, k := range l.kernels {
			r.kernelUs[k.Span] = medianOf(s.tr.durations(k.Span)) * 1e3
		}
	}
	return r
}

// perLayer lists, in order, every per-layer metric a traced run
// reports; BENCHMARK.json's per_layer list is this list.
func perLayer(s *session, l *layers) []metric {
	tr := s.tr
	us := func(name string) []float64 {
		d := tr.durations(name)
		for i := range d {
			d[i] *= 1e3
		}
		return d
	}
	ms := tr.durations
	writeSvc := append(append([]float64(nil), s.writeSvc...), s.createSvc...)
	expSum := 0.0
	for _, v := range l.figureS {
		expSum += v
	}
	shares := func(h, m int) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	out := []metric{
		timing("gen.late_p50_ms", "ms", s.lateMs, 0.5),
		tail("gen.late_p99_ms", "ms", s.lateMs, 99),
		single("gen.backlog_max", "count", float64(s.backlogMax)),
		single("gen.cpu_s", "s", s.genCPU.Seconds()),
		{Name: "gen.repeat_share", Unit: "ratio", Value: s.rc.share(), N: s.rc.advises},
		timing("serve.advise_service_ms", "ms", s.adviseSvc, 0.5),
		timing("serve.write_service_ms", "ms", writeSvc, 0.5),
		single("serve.queue_max", "count", float64(s.queueMax)),
		single("serve.shed", "count", float64(s.shed)),
		single("serve.mutations", "count", float64(s.mutations)),
	}
	for _, n := range []int{16, 32, 64} {
		out = append(out, timing(fmt.Sprintf("core.plan_us.%dvm", n), "us", l.planUs[n], 0.5))
	}
	out = append(out,
		timing("core.analyze_ms", "ms", ms("core.analyze"), 0.5),
		timing("core.observe_us", "us", us("core.observe"), 0.5),
		timing("core.stream_pair_us", "us", us("core.stream_pair"), 0.5),
		timing("core.partial_resolve_ms", "ms", ms("core.partial_resolve"), 0.5),
		single("core.recalibrations", "count", float64(l.recalibs)),
	)
	for _, n := range []int{256, 1024, 4096} {
		shape := fmt.Sprintf("10x%d", n)
		out = append(out, timing("rpca.decompose_ms."+shape, "ms", l.decomposeMs[shape], 0.5))
	}
	out = append(out,
		single("rpca.iterations", "count", float64(l.iterations)),
		single("rpca.svt_full", "count", float64(l.svtFull)),
		single("rpca.svt_truncated", "count", float64(l.svtTrunc)),
		timing("rpca.stream_append_us", "us", us("rpca.stream_append"), 0.5),
		timing("mat.svt_us", "us", us("mat.svt"), 0.5),
		timing("mat.mul_us", "us", us("mat.mul"), 0.5),
		timing("mat.gram_us", "us", us("mat.gram"), 0.5),
		timing("mat.eig_us", "us", us("mat.eig"), 0.5),
		timing("cloud.calibrate_tp_ms", "ms", ms("cloud.calibrate_tp"), 0.5),
		metric{Name: "cloud.memo_hit_ratio", Unit: "ratio", Value: shares(l.memoHits, l.memoMisses), N: l.memoHits + l.memoMisses},
		timing("checkpoint.append_us", "us", us("checkpoint.append"), 0.5),
		timing("checkpoint.record_bytes", "bytes", l.recordBytes, 0.5),
		timing("checkpoint.snapshot_ms", "ms", ms("checkpoint.snapshot"), 0.5),
		timing("checkpoint.replay_ms", "ms", ms("checkpoint.replay"), 0.5),
		timing("simnet.flow_us", "us", l.flowUs, 0.5),
		single("simnet.active_flows", "count", float64(l.activeFlows)),
		single("simnet.refill_components", "count", float64(l.refillComps)),
		metric{Name: "exp.figures_s", Unit: "s", Value: expSum, N: len(l.figureS)},
		single("exp.figure_s.fig12", "s", l.figureS["fig12"]),
		single("exp.figure_s.ext-clos", "s", l.figureS["ext-clos"]),
		single("exp.points", "count", float64(l.expPoints)),
		single("exp.memo_hits", "count", float64(l.expMemo.Hits)),
		single("exp.memo_misses", "count", float64(l.expMemo.Misses)),
	)
	return out
}

func context0(s *session) runContext {
	prog := os.Getenv("GOMAXPROCS")
	if prog == "" {
		prog = fmt.Sprintf("%d (Go default: nproc)", nproc())
	}
	return runContext{
		Workload: s.workload, Seed: s.seed, Seconds: s.seconds, Trace: s.tr != nil,
		NProc: nproc(), GenGOMAXPROCS: runtime.GOMAXPROCS(0), ProgGOMAXPROCS: prog,
		GoVersion: runtime.Version(), Revision: revision(), SourceDigest: sourceDigest(),
		StealShare: s.steal, RSSByProcMB: s.rssByProc, Laps: map[string][]lap{"setup": s.setup, "restart": s.restart, "campaign": {s.campaign}},
		SetupReps: len(s.setup), RestartReps: len(s.restart), LadderSteps: len(ladderRates), Connections: connections,
	}
}

// revision is the checkout's git revision, when it is a git checkout.
func revision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every Go file under cmd/ and internal/,
// identifying the code measured when no git revision is available.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// finite replaces a NaN or infinite value by 0 for the JSON line, which
// cannot carry them; the human lines keep the original.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (m metric) line(kind string) string {
	s := fmt.Sprintf("%-9s %-28s %14.6g %-6s n=%d", kind, m.Name, m.Value, m.Unit, m.N)
	if m.Quartiles {
		s += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
	}
	if m.Note != "" {
		s += "  (" + m.Note + ")"
	}
	return s
}

// print writes the human report, stores the JSON report under dir, and
// ends with the JSON line.
func (r *report) print(w io.Writer, dir string) error {
	c := r.Context
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", c.Workload, c.Seed, c.Seconds, c.Trace)
	fmt.Fprintf(w, "context   nproc=%d generator GOMAXPROCS=%d program GOMAXPROCS=%s %s rev=%s src=%s setups=%d restarts=%d ladder=%d connections=%d host-steal=%.1f%%\n",
		c.NProc, c.GenGOMAXPROCS, c.ProgGOMAXPROCS, c.GoVersion, c.Revision, c.SourceDigest, c.SetupReps, c.RestartReps, c.LadderSteps, c.Connections, 100*c.StealShare)
	for _, st := range r.Ladder {
		fmt.Fprintf(w, "ladder    %6.0f req/s  p99 %8.3f ms  failed %d  growing backlog %v\n", st.Rate, st.P99, st.Failed, st.Backlog)
	}
	for _, m := range r.EndToEnd {
		fmt.Fprintln(w, m.line("metric"))
	}
	for _, m := range r.Extra {
		fmt.Fprintln(w, m.line("extra"))
	}
	for _, m := range r.PerLayer {
		fmt.Fprintln(w, m.line("layer"))
	}
	for _, k := range r.Kernels {
		us := r.kernelUs[k.Span]
		fmt.Fprintf(w, "kernel    %-10s %-8s %10.4g flop %10.4g B per call (computed from the shape)  %.3g GFLOP/s %.3g GB/s at the median\n",
			k.Span, k.Shape, k.Flops, k.Bytes, k.Flops/us/1e3, k.Bytes/us/1e3)
	}
	names := make([]string, 0, len(r.SelfMs))
	for n := range r.SelfMs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "self      %-28s %12.3f ms\n", n, r.SelfMs[n])
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", c.Workload, c.Seed, btoi(c.Trace)))
	if r.trace {
		r.Overhead = overhead(r.EndToEnd, filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace0.json", c.Workload, c.Seed)))
		if len(r.Overhead) == 0 {
			fmt.Fprintln(w, "overhead  no untraced report for this seed; run --trace 0 first to measure tracing overhead")
		}
		for _, m := range r.Overhead {
			fmt.Fprintln(w, m.line("overhead"))
		}
	}
	for _, e := range r.Checks {
		fmt.Fprintln(w, "FAILED   ", e)
	}
	fmt.Fprintf(w, "requests  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, len(r.Checks) == 0)
	if err := writeJSON(base+".json", r); err != nil {
		return err
	}
	list := r.EndToEnd
	if r.trace {
		list = r.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range list {
		metrics[m.Name] = val{finite(m.Value), m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(r.Checks) == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// overhead is traced minus untraced for each end-to-end metric, read
// from the untraced report of the same workload and seed.
func overhead(traced []metric, untracedPath string) []metric {
	b, err := os.ReadFile(untracedPath)
	if err != nil {
		return nil
	}
	var u report
	if json.Unmarshal(b, &u) != nil {
		return nil
	}
	base := map[string]float64{}
	for _, m := range u.EndToEnd {
		base[m.Name] = m.Value
	}
	var out []metric
	for _, m := range traced {
		if b, ok := base[m.Name]; ok {
			out = append(out, metric{Name: m.Name, Unit: m.Unit, Value: m.Value - b, N: 1, Note: fmt.Sprintf("traced %.6g, untraced %.6g", m.Value, b)})
		}
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nullable maps NaN and infinities to JSON null.
func nullable(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// MarshalJSON writes non-finite values as null, which encoding/json
// cannot otherwise encode.
func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name    string    `json:"name"`
		Unit    string    `json:"unit"`
		Value   *float64  `json:"value"`
		N       int       `json:"n"`
		Q1      *float64  `json:"q1,omitempty"`
		Q3      *float64  `json:"q3,omitempty"`
		Note    string    `json:"note,omitempty"`
		Samples []float64 `json:"samples,omitempty"`
	}{m.Name, m.Unit, nullable(m.Value), m.N, nullable(m.Q1), nullable(m.Q3), m.Note, m.Samples})
}

// UnmarshalJSON reads what MarshalJSON writes; null becomes NaN.
func (m *metric) UnmarshalJSON(b []byte) error {
	var v struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Value *float64 `json:"value"`
		N     int      `json:"n"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	m.Name, m.Unit, m.N, m.Value = v.Name, v.Unit, v.N, math.NaN()
	if v.Value != nil {
		m.Value = *v.Value
	}
	return nil
}

// MarshalJSON writes an unsupported p99 as null.
func (s ladderStep) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Rate    float64  `json:"offered_rps"`
		P99     *float64 `json:"p99_ms"`
		Failed  int      `json:"failed"`
		Backlog bool     `json:"growing_backlog"`
	}{s.Rate, nullable(s.P99), s.Failed, s.Backlog})
}

// nets and walls list the net-of-steal and the raw wall times of laps.
func nets(ls []lap) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = l.Net()
	}
	return out
}

func walls(ls []lap) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = l.Wall
	}
	return out
}

// medianOf is the median of values, or NaN for none.
func medianOf(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	return summarize(values).Median
}
