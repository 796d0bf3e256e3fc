package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"netconstant/internal/core"
)

// shardGuidance reads a tenant's guidance on its shard goroutine,
// bypassing the published view and its memo.
func shardGuidance(t *testing.T, s *Server, id string) (g core.Guidance) {
	t.Helper()
	sh := s.shardFor(id)
	err := sh.submit(context.Background(), func(context.Context) error {
		tn, err := sh.tenantFor(id)
		if err != nil {
			return err
		}
		g = tn.adv.Guidance()
		return nil
	})
	if err != nil {
		t.Fatalf("shard guidance for %s: %v", id, err)
	}
	return g
}

// TestViewAdviseMatchesGuidance drives a seeded op sequence through the
// server and, after every step, requires each view-served advise body to
// equal a fresh, uncached encoding of the guidance's answer, byte for
// byte. It also pins when the advise memo survives a state change:
// exactly on the steps that leave the guidance equal.
func TestViewAdviseMatchesGuidance(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, hs := newTestServer(t, ctx, t.TempDir(), Config{Shards: 2})
	defer s.Close()
	defer hs.Close()
	const id = "alpha"
	rng := rand.New(rand.NewSource(12))
	series := func(base float64) string {
		parts := make([]string, 3)
		for i := range parts {
			parts[i] = fmt.Sprint(base * (0.9 + 0.2*rng.Float64()))
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	pair := func() string {
		return fmt.Sprintf(`{"src":%d,"dst":%d,"lat":%s,"bw":%s}`, rng.Intn(3), 3+rng.Intn(3), series(1e-3), series(1e8))
	}

	type step struct {
		name       string
		method     string
		path, body string
		code       int
		keepsMemo  bool
	}
	steps := []step{
		{"create", http.MethodPut, "", testTenantBody(21), http.StatusCreated, false},
		{"calibrate", http.MethodPost, "/calibrate", "", http.StatusOK, false},
		{"quiet observe", http.MethodPost, "/observe", `{"expected":1,"actual":1.05}`, http.StatusOK, true},
		{"advance", http.MethodPost, "/advance", `{"dt":30}`, http.StatusOK, true},
		{"stream-begin", http.MethodPost, "/stream/begin", "", http.StatusOK, true},
		{"stream-pair", http.MethodPost, "/stream/pair", pair(), http.StatusOK, true},
		{"resolve", http.MethodPost, "/resolve", "", http.StatusOK, false},
		{"spike observe", http.MethodPost, "/observe", `{"expected":1,"actual":9}`, http.StatusOK, false},
		// The spike's full recalibration closed the streaming session, so
		// this pair fails inside the advisor and the tenant is rebuilt
		// from its journal.
		{"failed stream-pair", http.MethodPost, "/stream/pair", pair(), http.StatusConflict, false},
	}
	strategies := []string{"", "rpca", "heuristics", "baseline", "topology"}
	sizes := []float64{1024, 65536, 1 << 20, 3.5e6}

	var prev *view
	var prevBodies map[string]string
	for _, st := range steps {
		code, body := doReq(t, st.method, hs.URL+"/v1/tenants/"+id+st.path, st.body)
		mustStatus(t, st.code, code, body)
		v, err := s.view(id)
		if err != nil {
			t.Fatalf("%s: no view: %v", st.name, err)
		}
		g := shardGuidance(t, s, id)
		if v.g != g {
			t.Fatalf("%s: published guidance %+v, shard holds %+v", st.name, v.g, g)
		}
		if prev != nil {
			kept := v.memo == prev.memo
			if kept != st.keepsMemo || kept != (v.g == prev.g) {
				t.Fatalf("%s: memo kept=%v, want %v (guidance equal=%v)", st.name, kept, st.keepsMemo, v.g == prev.g)
			}
		}
		// Two passes: the first fills the memo, the second reads it.
		bodies := map[string]string{}
		for pass := 0; pass < 2; pass++ {
			for _, strat := range strategies {
				for root := 0; root < g.N; root++ {
					for _, mb := range sizes {
						req := fmt.Sprintf(`{"strategy":%q,"root":%d,"msg_bytes":%v}`, strat, root, mb)
						code, got := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/"+id+"/advise", req)
						mustStatus(t, http.StatusOK, code, got)
						requested, err := parseStrategy(strat)
						if err != nil {
							t.Fatal(err)
						}
						want, err := json.Marshal(adviseAnswer(id, g, requested, root, mb))
						if err != nil {
							t.Fatal(err)
						}
						if got != string(want)+"\n" {
							t.Fatalf("%s pass %d %s: view body\n%s\nfresh answer\n%s", st.name, pass, req, got, want)
						}
						bodies[req] = got
					}
				}
			}
		}
		if st.name == "create" {
			var a AdviseResponse
			if err := json.Unmarshal([]byte(bodies[`{"strategy":"rpca","root":0,"msg_bytes":1024}`]), &a); err != nil {
				t.Fatal(err)
			}
			if a.Effective != "baseline" || !a.Degraded || a.Confidence != "none" {
				t.Fatalf("advise before calibration should degrade to baseline: %+v", a)
			}
		}
		if st.name == "failed stream-pair" {
			// The rebuilt tenant answers exactly as before the failed op.
			for req, b := range bodies {
				if prevBodies[req] != b {
					t.Fatalf("rebuild changed %s:\nbefore %s\nafter  %s", req, prevBodies[req], b)
				}
			}
		}
		if n, bound := memoLen(v.memo), memoBound(g.N); n != bound {
			t.Fatalf("%s: memo holds %d entries, want it full at its bound %d", st.name, n, bound)
		}
		prev, prevBodies = v, bodies
	}
}

func memoLen(m *adviseMemo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.bodies)
}

// TestViewReadsRaceWithMutations: readers hammer /advise and status
// while a writer calibrates, streams and resolves the same tenant. Run
// under -race it shows the published views share no memory the shard
// writes again; every response must be 2xx.
func TestViewReadsRaceWithMutations(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, hs := newTestServer(t, ctx, t.TempDir(), Config{Shards: 1})
	defer s.Close()
	defer hs.Close()
	base := hs.URL + "/v1/tenants/alpha"
	code, body := doReq(t, http.MethodPut, base, testTenantBody(33))
	mustStatus(t, http.StatusCreated, code, body)

	call := func(method, url, body string) (int, string, error) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return 0, "", err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(buf), err
	}

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		started.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				method, url, body := http.MethodGet, base, ""
				if i%2 == 0 {
					method, url = http.MethodPost, base+"/advise"
					body = fmt.Sprintf(`{"strategy":"rpca","root":%d,"msg_bytes":%d}`, (r+i)%6, 1024<<(i%3))
				}
				code, got, err := call(method, url, body)
				if i == 0 {
					started.Done()
				}
				if err != nil || code/100 != 2 {
					t.Errorf("reader %d: %s %s: %d %v %s", r, method, url, code, err, got)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	// Start writing once every reader is in its loop, so reads overlap
	// each kind of mutation.
	started.Wait()
	type write struct{ path, body string }
	for round := 0; round < 3; round++ {
		writes := []write{{"/calibrate", ""}, {"/stream/begin", ""}}
		for i := 0; i < 3; i++ {
			writes = append(writes,
				write{"/stream/pair", fmt.Sprintf(`{"src":%d,"dst":%d,"lat":[0.001,0.0011,0.0012],"bw":[1e8,%d.1e8,0.9e8]}`, i, 5-i, round+1)},
				write{"/resolve", ""})
		}
		for _, wr := range writes {
			code, got, err := call(http.MethodPost, base+wr.path, wr.body)
			if err != nil || code/100 != 2 {
				t.Errorf("writer %s: %d %v %s", wr.path, code, err, got)
			}
		}
	}
	close(stop)
	wg.Wait()
}
