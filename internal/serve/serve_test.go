package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testConfig keeps tenants small so a full calibrate runs in
// milliseconds.
func testTenantBody(seed int64) string {
	return fmt.Sprintf(`{"vms":6,"seed":%d,"steps":3,"racks":4,"servers_per_rack":4,"gap":5,"threshold":0.5}`, seed)
}

func newTestServer(t *testing.T, ctx context.Context, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Dir = dir
	s, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s)
	return s, hs
}

func doReq(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(buf)
}

func mustStatus(t *testing.T, wantCode int, gotCode int, body string) {
	t.Helper()
	if gotCode != wantCode {
		t.Fatalf("status %d, want %d; body: %s", gotCode, wantCode, body)
	}
}

// runTrace drives a representative multi-tenant request trace and
// returns each tenant's post-trace probe responses (status + advise),
// the byte-level state the restart oracle compares.
func runTrace(t *testing.T, base string, tenants []string) map[string]string {
	t.Helper()
	for i, id := range tenants {
		code, body := doReq(t, http.MethodPut, base+"/v1/tenants/"+id, testTenantBody(int64(100+i)))
		mustStatus(t, http.StatusCreated, code, body)
	}
	for _, id := range tenants {
		code, body := doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/calibrate", "")
		mustStatus(t, http.StatusOK, code, body)
		code, body = doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/advance", `{"dt":30}`)
		mustStatus(t, http.StatusOK, code, body)
		// A quiet observation, then a spike that forces maintenance.
		code, body = doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/observe", `{"expected":1,"actual":1.1}`)
		mustStatus(t, http.StatusOK, code, body)
		code, body = doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/observe", `{"expected":1,"actual":9}`)
		mustStatus(t, http.StatusOK, code, body)
		var ob ObserveResponse
		if err := json.Unmarshal([]byte(body), &ob); err != nil || !ob.Triggered {
			t.Fatalf("spike observe should trigger maintenance: %s (err %v)", body, err)
		}
	}
	// One tenant opens a streaming session and resolves.
	id := tenants[0]
	code, body := doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/stream/begin", "")
	mustStatus(t, http.StatusOK, code, body)
	code, body = doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/stream/pair",
		`{"src":0,"dst":1,"lat":[0.001,0.0011,0.0012],"bw":[1e8,1.1e8,0.9e8]}`)
	mustStatus(t, http.StatusOK, code, body)
	code, body = doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/resolve", "")
	mustStatus(t, http.StatusOK, code, body)
	return probeAll(t, base, tenants)
}

// probeAll captures the deterministic read surface for each tenant.
func probeAll(t *testing.T, base string, tenants []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range tenants {
		code, status := doReq(t, http.MethodGet, base+"/v1/tenants/"+id, "")
		mustStatus(t, http.StatusOK, code, status)
		code, advise := doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/advise",
			`{"strategy":"rpca","root":0,"msg_bytes":1048576}`)
		mustStatus(t, http.StatusOK, code, advise)
		out[id] = status + advise
	}
	return out
}

// TestServerRestartEquivalence: a server closed cleanly and reopened
// from its journals answers byte-identically — including tenants whose
// state came from observe-triggered recalibrations and streaming
// partial resolves.
func TestServerRestartEquivalence(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta", "gamma"}

	s1, hs1 := newTestServer(t, ctx, dir, Config{Shards: 2, SnapshotEvery: 4})
	before := runTrace(t, hs1.URL, tenants)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, hs2 := newTestServer(t, ctx, dir, Config{Shards: 2, SnapshotEvery: 4})
	defer s2.Close()
	defer hs2.Close()
	if q := s2.Quarantined(); len(q) != 0 {
		t.Fatalf("clean restart quarantined %v", q)
	}
	after := probeAll(t, hs2.URL, tenants)
	for _, id := range tenants {
		if before[id] != after[id] {
			t.Fatalf("tenant %s diverged across restart:\nbefore: %s\nafter:  %s", id, before[id], after[id])
		}
	}
	// The restarted server keeps accepting mutations.
	code, body := doReq(t, http.MethodPost, hs2.URL+"/v1/tenants/alpha/observe", `{"expected":1,"actual":1.05}`)
	mustStatus(t, http.StatusOK, code, body)
}

// TestServerRestartEquivalenceDifferentShardCount: restart equivalence
// must not depend on the shard layout, only on the journals.
func TestServerRestartEquivalenceDifferentShardCount(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta"}
	s1, hs1 := newTestServer(t, ctx, dir, Config{Shards: 1})
	before := runTrace(t, hs1.URL, tenants)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, hs2 := newTestServer(t, ctx, dir, Config{Shards: 4})
	defer s2.Close()
	defer hs2.Close()
	after := probeAll(t, hs2.URL, tenants)
	for _, id := range tenants {
		if before[id] != after[id] {
			t.Fatalf("tenant %s diverged across shard-count change", id)
		}
	}
}

// TestServerQuarantineIsolation: damaging one tenant's files quarantines
// exactly that tenant — typed refusal for it, byte-identical answers for
// its neighbors, and a /healthz listing.
func TestServerQuarantineIsolation(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta", "gamma"}
	s1, hs1 := newTestServer(t, ctx, dir, Config{})
	before := runTrace(t, hs1.URL, tenants)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage alpha's snapshot mid-payload.
	snap := filepath.Join(dir, "alpha.ncsnap")
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x20
	if err := os.WriteFile(snap, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, hs2 := newTestServer(t, ctx, dir, Config{})
	defer s2.Close()
	defer hs2.Close()
	code, body := doReq(t, http.MethodGet, hs2.URL+"/v1/tenants/alpha", "")
	mustStatus(t, http.StatusGone, code, body)
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "quarantined" {
		t.Fatalf("quarantined refusal not typed: %s", body)
	}
	// Mutations are refused too.
	code, body = doReq(t, http.MethodPost, hs2.URL+"/v1/tenants/alpha/calibrate", "")
	mustStatus(t, http.StatusGone, code, body)
	// Neighbors are untouched.
	after := probeAll(t, hs2.URL, tenants[1:])
	for _, id := range tenants[1:] {
		if before[id] != after[id] {
			t.Fatalf("healthy tenant %s diverged after neighbor quarantine", id)
		}
	}
	// healthz lists the quarantined tenant.
	code, body = doReq(t, http.MethodGet, hs2.URL+"/healthz", "")
	mustStatus(t, http.StatusOK, code, body)
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Quarantined) != 1 || h.Quarantined[0] != "alpha" {
		t.Fatalf("healthz quarantined = %v, want [alpha]", h.Quarantined)
	}
}

// TestServerSheddingAndDeadline: a wedged shard sheds excess mutations
// with the typed 429 instead of queueing unboundedly, while reads —
// served from the last published view — keep answering byte-identically.
func TestServerSheddingAndDeadline(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{Shards: 1, QueueDepth: 1})
	defer s.Close()
	defer hs.Close()

	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/alpha", testTenantBody(7))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/calibrate", "")
	mustStatus(t, http.StatusOK, code, body)
	const adviseReq = `{"strategy":"rpca","root":1,"msg_bytes":65536}`
	code, statusBefore := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/alpha", "")
	mustStatus(t, http.StatusOK, code, statusBefore)
	code, adviseBefore := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/advise", adviseReq)
	mustStatus(t, http.StatusOK, code, adviseBefore)

	// Wedge the only shard. The release defer is registered after the
	// Close defers, so it runs first and a test failure can never leave
	// the shard (and s.Close) deadlocked.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	blocked := make(chan struct{})
	go s.shards[0].submit(context.Background(), func(context.Context) error {
		close(blocked)
		<-release
		return nil
	})
	<-blocked
	// Fill the queue (depth 1).
	go s.shards[0].submit(context.Background(), func(context.Context) error { return nil })
	waitFor(t, func() bool { return len(s.shards[0].ch) == 1 })

	// The next mutation is shed with the typed 429.
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/advance", `{"dt":1}`)
	mustStatus(t, http.StatusTooManyRequests, code, body)
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "overloaded" {
		t.Fatalf("shed response not typed: %s", body)
	}
	// Reads never queue: the wedged shard still answers status and
	// advise, byte-identical to their pre-wedge bodies.
	code, body = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/alpha", "")
	mustStatus(t, http.StatusOK, code, body)
	if body != statusBefore {
		t.Fatalf("status changed while wedged:\nbefore: %s\nduring: %s", statusBefore, body)
	}
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/advise", adviseReq)
	mustStatus(t, http.StatusOK, code, body)
	if body != adviseBefore {
		t.Fatalf("advise changed while wedged:\nbefore: %s\nduring: %s", adviseBefore, body)
	}
	releaseOnce()

	// After release the shard drains and accepts mutations again.
	waitFor(t, func() bool {
		code, _ := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/advance", `{"dt":1}`)
		return code == http.StatusOK
	})
	// The shed counter moved and is visible in /healthz.
	code, body = doReq(t, http.MethodGet, hs.URL+"/healthz", "")
	mustStatus(t, http.StatusOK, code, body)
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Shards[0].Shed == 0 {
		t.Fatalf("healthz shed counter did not move: %s", body)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDeadlineOnSlowMutation: a request whose deadline expires
// while its work runs gets the typed 504.
func TestServerDeadlineOnSlowMutation(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{Shards: 1})
	defer s.Close()
	defer hs.Close()
	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/alpha", testTenantBody(9))
	mustStatus(t, http.StatusCreated, code, body)

	// Wedge the shard so the HTTP request waits in queue past its
	// deadline. The release defer is registered after the Close defers,
	// so it runs first and a failure can never leave s.Close deadlocked.
	release := make(chan struct{})
	defer sync.OnceFunc(func() { close(release) })()
	blocked := make(chan struct{})
	go s.shards[0].submit(context.Background(), func(context.Context) error {
		close(blocked)
		<-release
		return nil
	})
	<-blocked
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/advance?timeout_ms=50", `{"dt":1}`)
	mustStatus(t, http.StatusGatewayTimeout, code, body)
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "deadline" {
		t.Fatalf("deadline response not typed: %s", body)
	}
}

// TestServerMemoSharedAcrossTenants: tenants with identical provenance
// share calibration traces through the cross-tenant memo tier.
func TestServerMemoSharedAcrossTenants(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{})
	defer s.Close()
	defer hs.Close()
	for _, id := range []string{"twin-a", "twin-b"} {
		code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/"+id, testTenantBody(55))
		mustStatus(t, http.StatusCreated, code, body)
		code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/"+id+"/calibrate", "")
		mustStatus(t, http.StatusOK, code, body)
	}
	st := s.memo.Stats()
	if st.Hits < 1 {
		t.Fatalf("twin tenants shared no calibration: %+v", st)
	}
}

// TestServerDrainRefusesTyped: after Drain every request gets the typed
// 503 and Close seals snapshots so the journals reopen compact.
func TestServerDrainRefusesTyped(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{})
	defer hs.Close()
	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/alpha", testTenantBody(3))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/calibrate", "")
	mustStatus(t, http.StatusOK, code, body)

	s.Drain()
	code, body = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/alpha", "")
	mustStatus(t, http.StatusServiceUnavailable, code, body)
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "draining" {
		t.Fatalf("drain refusal not typed: %s", body)
	}
	// healthz still answers, reporting the drain.
	code, body = doReq(t, http.MethodGet, hs.URL+"/healthz", "")
	mustStatus(t, http.StatusOK, code, body)
	if !bytes.Contains([]byte(body), []byte(`"status":"draining"`)) {
		t.Fatalf("healthz should report draining: %s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close sealed a snapshot: the journal tail is empty on reopen.
	if _, err := os.Stat(filepath.Join(dir, "alpha.ncsnap")); err != nil {
		t.Fatalf("drain did not seal a snapshot: %v", err)
	}
}

// TestServerTenantValidation: malformed IDs and configs refuse with the
// typed 400 before touching any shard.
func TestServerTenantValidation(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, hs := newTestServer(t, ctx, t.TempDir(), Config{})
	defer s.Close()
	defer hs.Close()
	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/bad..id", testTenantBody(1))
	mustStatus(t, http.StatusBadRequest, code, body)
	code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/ok", `{"vms":1}`)
	mustStatus(t, http.StatusBadRequest, code, body)
	code, body = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/missing", "")
	mustStatus(t, http.StatusNotFound, code, body)
	code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/ok", testTenantBody(1))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/ok", testTenantBody(1))
	mustStatus(t, http.StatusConflict, code, body)
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/ok/resolve", "")
	mustStatus(t, http.StatusConflict, code, body) // not streaming
}
