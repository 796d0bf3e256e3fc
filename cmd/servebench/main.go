// Command servebench load-tests the in-process advisor daemon and
// writes BENCH_serve.json:
//
//  1. steady state — T tenants are created and calibrated, then N
//     advise requests (N ≥ 1000 at full scale) are fired through W
//     concurrent clients against a real TCP listener; the report
//     carries p50/p99 request latency and aggregate req/s, and any
//     non-2xx steady-state response fails the run;
//  2. overload — a single-shard server with a tiny admission queue
//     takes a synchronized burst of journaled advance mutations far
//     wider than the queue (reads never queue, so only mutations
//     exercise admission control); the report carries the shed rate
//     (typed 429 refusals / burst size), demonstrating that saturation
//     degrades into fast typed sheds rather than unbounded queueing.
//
// Usage:
//
//	servebench [-quick] [-requests N] [-concurrency W] [-tenants T]
//	           [-out BENCH_serve.json]
//
// -quick shrinks both phases for CI smoke runs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netconstant/internal/cli"
	"netconstant/internal/serve"
	"netconstant/internal/stats"
)

type steadyReport struct {
	Tenants     int     `json:"tenants"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Errors      int     `json:"errors"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	ReqPerSec   float64 `json:"req_per_s"`
	TotalSec    float64 `json:"total_s"`
}

type overloadReport struct {
	Burst      int     `json:"burst"`
	QueueDepth int     `json:"queue_depth"`
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	Errors     int     `json:"errors"`
	ShedRate   float64 `json:"shed_rate"`
}

type report struct {
	Quick    bool           `json:"quick"`
	Steady   steadyReport   `json:"steady"`
	Overload overloadReport `json:"overload"`
}

// bench is one in-process daemon behind a real TCP listener plus the
// client tuned to hammer it.
type bench struct {
	srv    *serve.Server
	hs     *http.Server
	ln     net.Listener
	base   string
	client *http.Client
	dir    string
}

func startBench(ctx context.Context, cfg serve.Config, conc int) (*bench, error) {
	dir, err := os.MkdirTemp("", "servebench-*")
	if err != nil {
		return nil, err
	}
	cfg.Dir = dir
	s, err := serve.New(ctx, cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	tr := &http.Transport{MaxIdleConns: 2 * conc, MaxIdleConnsPerHost: 2 * conc}
	return &bench{
		srv:    s,
		hs:     hs,
		ln:     ln,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr},
		dir:    dir,
	}, nil
}

func (b *bench) stop() {
	b.hs.Close()
	b.srv.Close()
	b.client.CloseIdleConnections()
	os.RemoveAll(b.dir)
}

// do issues one request and returns the status code, draining the body
// so the connection is reused.
func (b *bench) do(method, path string, body any) (int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func (b *bench) createTenant(id string, seed int64) error {
	status, err := b.do("PUT", "/v1/tenants/"+id, map[string]any{
		"vms": 6, "seed": seed, "steps": 3, "racks": 4, "servers_per_rack": 4,
	})
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("create %s: status %d", id, status)
	}
	if status, err = b.do("POST", "/v1/tenants/"+id+"/calibrate", nil); err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("calibrate %s: status %d", id, status)
	}
	return nil
}

var (
	adviseBody  = map[string]any{"strategy": "rpca", "root": 0, "msg_bytes": 1048576}
	advanceBody = map[string]any{"dt": 1}
)

// runSteady fires total advise requests through conc workers and
// reports latency quantiles and throughput.
func runSteady(ctx context.Context, tenants, total, conc int) (steadyReport, error) {
	b, err := startBench(ctx, serve.Config{Shards: 4, QueueDepth: 4 * conc}, conc)
	if err != nil {
		return steadyReport{}, err
	}
	defer b.stop()
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%02d", i)
		if err := b.createTenant(ids[i], int64(100+i)); err != nil {
			return steadyReport{}, err
		}
	}

	latencies := make([]float64, total)
	var next, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || ctx.Err() != nil {
					return
				}
				path := "/v1/tenants/" + ids[i%tenants] + "/advise"
				t0 := time.Now()
				status, err := b.do("POST", path, adviseBody)
				latencies[i] = time.Since(t0).Seconds()
				if err != nil || status != http.StatusOK {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return steadyReport{}, err
	}
	sort.Float64s(latencies)
	return steadyReport{
		Tenants:     tenants,
		Requests:    total,
		Concurrency: conc,
		Errors:      int(errs.Load()),
		P50Ms:       stats.Quantile(latencies, 0.5) * 1e3,
		P99Ms:       stats.Quantile(latencies, 0.99) * 1e3,
		ReqPerSec:   float64(total) / elapsed,
		TotalSec:    elapsed,
	}, nil
}

// runOverload slams one single-shard, depth-queue server with a
// synchronized burst of queued mutations and counts the typed sheds.
func runOverload(ctx context.Context, burst, depth int) (overloadReport, error) {
	b, err := startBench(ctx, serve.Config{Shards: 1, QueueDepth: depth}, burst)
	if err != nil {
		return overloadReport{}, err
	}
	defer b.stop()
	if err := b.createTenant("burst", 7); err != nil {
		return overloadReport{}, err
	}

	var served, shed, errs atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			status, err := b.do("POST", "/v1/tenants/burst/advance", advanceBody)
			switch {
			case err != nil:
				errs.Add(1)
			case status == http.StatusOK:
				served.Add(1)
			case status == http.StatusTooManyRequests:
				shed.Add(1)
			default:
				errs.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return overloadReport{}, err
	}
	return overloadReport{
		Burst:      burst,
		QueueDepth: depth,
		Served:     int(served.Load()),
		Shed:       int(shed.Load()),
		Errors:     int(errs.Load()),
		ShedRate:   float64(shed.Load()) / float64(burst),
	}, nil
}

func main() { os.Exit(run()) }

func run() int {
	quick := flag.Bool("quick", false, "reduced scale for CI smoke runs")
	requests := flag.Int("requests", 4096, "steady-state advise requests")
	conc := flag.Int("concurrency", 1024, "steady-state concurrent clients (full scale keeps ≥ 1000 advise requests in flight)")
	tenants := flag.Int("tenants", 8, "steady-state tenants")
	out := flag.String("out", "BENCH_serve.json", "report path")
	flag.Parse()
	if flag.NArg() != 0 {
		return cli.Usagef("servebench", "unexpected arguments %v", flag.Args())
	}
	total, width, burst := *requests, *conc, 512
	if *quick {
		total, width, burst = 200, 16, 96
		if *tenants > 2 {
			*tenants = 2
		}
	}
	if total < 1 || width < 1 || *tenants < 1 {
		return cli.Usagef("servebench", "-requests, -concurrency and -tenants must be ≥ 1")
	}

	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	defer cli.SignalDrain("servebench", "finishing the current phase", cancelRun)()

	st, err := runSteady(ctx, *tenants, total, width)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "servebench: interrupted — no report written")
			return cli.ExitInterrupted
		}
		return cli.Failf("servebench", "steady phase: %v", err)
	}
	ov, err := runOverload(ctx, burst, 8)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "servebench: interrupted — no report written")
			return cli.ExitInterrupted
		}
		return cli.Failf("servebench", "overload phase: %v", err)
	}

	rep := report{Quick: *quick, Steady: st, Overload: ov}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return cli.Failf("servebench", "encode report: %v", err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return cli.Failf("servebench", "write report: %v", err)
	}
	fmt.Printf("steady: %d req × %d clients over %d tenants: p50 %.2fms p99 %.2fms (%.0f req/s, %d errors)\n",
		st.Requests, st.Concurrency, st.Tenants, st.P50Ms, st.P99Ms, st.ReqPerSec, st.Errors)
	fmt.Printf("overload: burst %d into queue %d: served %d, shed %d (rate %.2f), errors %d\n",
		ov.Burst, ov.QueueDepth, ov.Served, ov.Shed, ov.ShedRate, ov.Errors)
	fmt.Printf("wrote %s\n", *out)
	if st.Errors > 0 {
		return cli.Failf("servebench", "steady phase: %d of %d advise requests failed", st.Errors, st.Requests)
	}
	return cli.ExitOK
}
