package main

// The open-loop generator. Each lane owns one keep-alive connection and
// sends its requests at their scheduled times whether or not earlier
// ones were slow; a request's latency is timed from when it was due,
// so a stall is charged to every request it delayed (no coordinated
// omission). Lanes never exceed nproc connections in total.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// record is the outcome of one request.
type record struct {
	Req      request
	Sent     time.Duration // actual send time from the phase start
	Done     time.Duration
	Status   int // 0 on a transport error
	Body     []byte
	EpochIn  uint64 // tenant mutation epoch when sent (reads)
	EpochOut uint64 // ... and when answered
}

func (r record) latencyMs() float64 { return float64(r.Done-r.Req.At) / 1e6 }
func (r record) serviceMs() float64 { return float64(r.Done-r.Sent) / 1e6 }
func (r record) lateMs() float64    { return float64(r.Sent-r.Req.At) / 1e6 }
func (r record) ok() bool           { return r.Status >= 200 && r.Status < 300 }

// epochs tracks, per tenant, a counter bumped when a mutation is sent and
// again when it is answered. A read whose epoch is even and unchanged
// across its flight saw no concurrent mutation, so its answer must equal
// every other such answer for the same key and epoch.
type epochs struct {
	mu sync.Mutex
	e  []uint64
}

func newEpochs(n int) *epochs { return &epochs{e: make([]uint64, n)} }

func (e *epochs) bump(t int) {
	e.mu.Lock()
	e.e[t]++
	e.mu.Unlock()
}

func (e *epochs) get(t int) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.e[t]
}

// client is one lane's HTTP client, pinned to a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// path returns the method and URL path of a request kind.
func path(kind, tenant string) (string, string) {
	switch kind {
	case kAdvise:
		return "POST", "/v1/tenants/" + tenant + "/advise"
	case kStatus:
		return "GET", "/v1/tenants/" + tenant
	case kCalibrate:
		return "POST", "/v1/tenants/" + tenant + "/calibrate"
	case kObserve, kTrigger:
		return "POST", "/v1/tenants/" + tenant + "/observe"
	case kAdvance:
		return "POST", "/v1/tenants/" + tenant + "/advance"
	case kStreamBegin:
		return "POST", "/v1/tenants/" + tenant + "/stream/begin"
	case kStreamPair:
		return "POST", "/v1/tenants/" + tenant + "/stream/pair"
	case kResolve:
		return "POST", "/v1/tenants/" + tenant + "/resolve"
	case "create":
		return "PUT", "/v1/tenants/" + tenant
	}
	return "GET", "/healthz"
}

// do sends one request and returns its status and body; status 0 means
// a transport error.
func (c *client) do(method, p string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+p, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// phaseResult is what one run of a schedule produced.
type phaseResult struct {
	Records    []record
	BacklogMax int
}

// runSchedule drives every lane of s against addr from one start
// instant and waits for all of them. tr, when non-nil, records one span
// per request.
func runSchedule(ctx context.Context, addr string, ts []tenantSpec, s schedule, ep *epochs, tr *tracer, reqBase int64) phaseResult {
	start := time.Now()
	out := make([][]record, len(s.Lanes))
	backlog := make([]int, len(s.Lanes))
	var wg sync.WaitGroup
	for li := range s.Lanes {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			c := newClient(addr)
			defer c.close()
			lane := s.Lanes[li]
			recs := make([]record, 0, len(lane))
			due := 0 // requests whose time has come, for the backlog count
			for i, rq := range lane {
				if ctx.Err() != nil {
					return
				}
				if wait := rq.At - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Since(start)
				for due < len(lane) && lane[due].At <= now {
					due++
				}
				backlog[li] = max(backlog[li], due-i)
				rec := record{Req: rq, Sent: now}
				mutation := !isRead(rq.Kind)
				if mutation {
					ep.bump(rq.Tenant)
				} else {
					rec.EpochIn = ep.get(rq.Tenant)
				}
				method, p := path(rq.Kind, ts[rq.Tenant].ID)
				status, body, err := c.do(method, p, rq.Body)
				rec.Done = time.Since(start)
				if err == nil {
					rec.Status, rec.Body = status, body
				}
				if mutation {
					ep.bump(rq.Tenant)
				} else {
					rec.EpochOut = ep.get(rq.Tenant)
				}
				if tr != nil {
					tr.record("http."+rq.Kind, -1, reqBase+int64(li)<<32+int64(i), start.Add(rec.Sent), start.Add(rec.Done))
				}
				recs = append(recs, rec)
			}
			out[li] = recs
		}(li)
	}
	wg.Wait()
	var res phaseResult
	for li := range out {
		res.Records = append(res.Records, out[li]...)
		res.BacklogMax = max(res.BacklogMax, backlog[li])
	}
	return res
}

// healthSampler polls /healthz on its own connection while a phase runs
// (traced runs only) and keeps the largest queue depth it saw.
type healthSampler struct {
	stop     chan struct{}
	done     chan struct{}
	queueMax int
}

func startHealthSampler(addr string, every time.Duration) *healthSampler {
	h := &healthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		c := newClient(addr)
		defer c.close()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			hr, err := getHealth(c)
			if err != nil {
				continue
			}
			for _, sh := range hr.Shards {
				h.queueMax = max(h.queueMax, sh.Queue)
			}
		}
	}()
	return h
}

// finish stops the sampler and waits for it.
func (h *healthSampler) finish() {
	close(h.stop)
	<-h.done
}

func errStatus(what string, status int, body []byte) error {
	return fmt.Errorf("%s: HTTP %d: %s", what, status, bytes.TrimSpace(body))
}
