package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"netconstant/internal/checkpoint"
	"netconstant/internal/core"
)

// stateTestConfig is big enough that the streaming solvers take the
// warm truncated SVT route (16 rows, 81 columns) and small enough that
// a calibration runs in milliseconds.
func stateTestConfig(seed int64) TenantConfig {
	return TenantConfig{VMs: 9, Seed: seed, Steps: 16, Racks: 4, ServersPerRack: 4, Gap: 5, Threshold: 0.5}
}

// restoreOps is a seeded op sequence that covers all seven op kinds:
// quiet, regime-triggering and spike observes, an advance long enough to
// migrate every VM, and two streaming sessions with pairs and resolves.
func restoreOps(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	cfg := stateTestConfig(rng.Int63n(1000))
	cfg.applyDefaults()
	series := func(base float64) []float64 {
		v := make([]float64, cfg.Steps)
		for i := range v {
			v[i] = base * (0.9 + 0.2*rng.Float64())
		}
		return v
	}
	pair := func() op {
		src := rng.Intn(cfg.VMs)
		dst := (src + 1 + rng.Intn(cfg.VMs-1)) % cfg.VMs
		return op{Kind: opStreamPair, Src: src, Dst: dst, Lat: series(1e-3), Bw: series(1e8)}
	}
	observe := func(rel float64) op { return op{Kind: opObserve, Expected: 1, Actual: 1 + rel} }
	ops := []op{
		{Kind: opCreate, Cfg: &cfg},
		{Kind: opAdvance, Dt: 1 + 59*rng.Float64()},
		{Kind: opCalibrate},
		observe(0.1 * rng.Float64()),
		{Kind: opStreamBegin},
		pair(), pair(),
	}
	// Five observes a little under the threshold: the divergence EWMA
	// crosses the regime threshold and the fifth fires a partial resolve.
	for i := 0; i < 5; i++ {
		ops = append(ops, observe(0.44+0.05*rng.Float64()))
	}
	return append(ops,
		op{Kind: opResolve},
		op{Kind: opAdvance, Dt: 3 * 86400},
		pair(),
		observe(8), // spike: full recalibration, which closes the session
		op{Kind: opStreamBegin},
		pair(),
		op{Kind: opAdvance, Dt: 1 + 59*rng.Float64()},
	)
}

// probeTenant is the tenant's read surface with its ID blanked, so
// tenants of different IDs compare: the status body and two advise
// bodies.
func probeTenant(t *testing.T, tn *tenant) string {
	t.Helper()
	st := tn.status()
	st.Tenant = ""
	g := tn.adv.Guidance()
	var out []byte
	for _, v := range []any{st, adviseAnswer("", g, core.RPCA, 1, 1<<20), adviseAnswer("", g, core.Heuristics, 1, 1<<20)} {
		body := encodeBody(v)
		if body == nil {
			t.Fatalf("probe %+v did not encode", v)
		}
		out = append(out, body...)
	}
	return string(out)
}

// stateTestServer is a server with no tenants whose memo, lifetime
// context and directory the tests' hand-built tenants share.
func stateTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(context.Background(), Config{Dir: t.TempDir(), SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func openTestStore(t testing.TB, s *Server, id string) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.OpenStore(s.journalPath(id), s.snapPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// applyJournaled applies one op the way a mutation does: apply, then
// journal.
func applyJournaled(t testing.TB, tn *tenant, o op) {
	t.Helper()
	if _, _, err := tn.applyOp(tn.srv.baseCtx, o); err != nil {
		t.Fatalf("apply %s: %v", o.Kind, err)
	}
	if err := tn.journalOp(o); err != nil {
		t.Fatalf("journal %s: %v", o.Kind, err)
	}
}

// createJournaled builds a tenant from a create op and journals it.
func createJournaled(t testing.TB, s *Server, id string, create op) *tenant {
	t.Helper()
	tn, err := newTenant(s, id, *create.Cfg, openTestStore(t, s, id))
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.journalOp(create); err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestStateRestoreEquivalence is the prefix-cut property of sealed
// state: for every cut of a seeded op sequence, sealing the tenant's
// state at the cut, restarting from it and applying the remaining ops
// answers status and advise byte for byte like a twin that never
// stopped, after every op. Sealing the restored tenant again reproduces
// the state file byte for byte.
func TestStateRestoreEquivalence(t *testing.T) {
	s := stateTestServer(t)
	ops := restoreOps(17)

	// The twin runs the whole sequence once; at every cut it records
	// its state payload and its answers.
	twin := createJournaled(t, s, "twin", ops[0])
	seal := func() []byte { return twin.encodeState(twin.store.Seq(), historyDigest(twin.store.Records())) }
	want, sealed := []string{probeTenant(t, twin)}, [][]byte{seal()}
	for _, o := range ops[1:] {
		applyJournaled(t, twin, o)
		want, sealed = append(want, probeTenant(t, twin)), append(sealed, seal())
	}
	var final StatusResponse
	if err := json.Unmarshal(encodeBody(twin.status()), &final); err != nil {
		t.Fatal(err)
	}
	if final.Recalibrations == 0 || final.PartialResolves < 2 || !final.Streaming {
		t.Fatalf("op sequence misses a trigger or a session: %+v", final)
	}
	if twin.adv.State().StreamLat.SVT.Truncs == 0 {
		t.Fatal("streaming solver never took the truncated SVT route")
	}
	recs := twin.store.Records()

	for cut := 1; cut <= len(ops); cut++ {
		// A journal of the first cut records, and the state sealed there.
		id := fmt.Sprintf("cut%d", cut)
		store := openTestStore(t, s, id)
		for _, rec := range recs[:cut] {
			if _, err := store.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.SaveSnapshot(s.statePath(id), sealed[cut-1]); err != nil {
			t.Fatal(err)
		}

		rt, err := rebuildTenant(s, id, openTestStore(t, s, id))
		if err != nil {
			t.Fatalf("cut %d: rebuild: %v", cut, err)
		}
		if rt.sealed != uint64(cut) {
			t.Fatalf("cut %d: rebuilt from sequence %d, not from the sealed state", cut, rt.sealed)
		}
		if again := rt.encodeState(uint64(cut), historyDigest(rt.store.Records())); !bytes.Equal(again, sealed[cut-1]) {
			t.Fatalf("cut %d: sealing the restored tenant does not reproduce its state file", cut)
		}
		if got := probeTenant(t, rt); got != want[cut-1] {
			t.Fatalf("cut %d: restored tenant answers\n%s\nthe twin\n%s", cut, got, want[cut-1])
		}
		for i := cut; i < len(ops); i++ {
			applyJournaled(t, rt, ops[i])
			if got := probeTenant(t, rt); got != want[i] {
				t.Fatalf("cut %d, op %d (%s): restored tenant answers\n%s\nthe twin\n%s", cut, i, ops[i].Kind, got, want[i])
			}
		}
		if final := rt.encodeState(rt.store.Seq(), historyDigest(rt.store.Records())); !bytes.Equal(final, sealed[len(ops)-1]) {
			t.Fatalf("cut %d: restored tenant's final state differs from the twin's", cut)
		}
		rt.store.Close()
	}
}

// TestRestoreRunsNoCalibrationOrSolve: a relaunch on sealed state makes
// zero calibration-memo lookups — every calibration, including the
// maintenance ones, goes through the memo — and its streaming solvers
// resolve nothing and run no SVT: their resolve and SVT counters are
// exactly the sealed ones. Without the state files the same relaunch
// recomputes.
func TestRestoreRunsNoCalibrationOrSolve(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta", "gamma"}
	s1, hs1 := newTestServer(t, ctx, dir, Config{Shards: 2})
	runTrace(t, hs1.URL, tenants)
	hs1.Close()
	sealedStream := shardTenantState(t, s1, "alpha")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(ctx, Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.memo.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("restore from sealed state looked up %d calibrations", st.Hits+st.Misses)
	}
	for _, id := range tenants {
		tn := s2.shardFor(id).tenants[id]
		if tn.sealed != tn.store.Seq() {
			t.Fatalf("%s restored at sequence %d, store at %d", id, tn.sealed, tn.store.Seq())
		}
	}
	restored := shardTenantState(t, s2, "alpha")
	for _, pair := range [][2]any{
		{sealedStream.StreamLat.Stats, restored.StreamLat.Stats},
		{sealedStream.StreamBw.Stats, restored.StreamBw.Stats},
		{sealedStream.StreamLat.SVT.FullSVDs + sealedStream.StreamLat.SVT.Truncs, restored.StreamLat.SVT.FullSVDs + restored.StreamLat.SVT.Truncs},
		{sealedStream.StreamBw.SVT.FullSVDs + sealedStream.StreamBw.SVT.Truncs, restored.StreamBw.SVT.FullSVDs + restored.StreamBw.SVT.Truncs},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("restore moved a streaming solver: sealed %v, restored %v", pair[0], pair[1])
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	for _, id := range tenants {
		if err := os.Remove(filepath.Join(dir, id+".ncstate")); err != nil {
			t.Fatal(err)
		}
	}
	s3, err := New(ctx, Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.memo.Stats(); st.Misses == 0 {
		t.Fatalf("replay without state files looked up no calibration: %+v", st)
	}
}

// shardTenantState reads a tenant's advisor state on its shard.
func shardTenantState(t *testing.T, s *Server, id string) (st core.AdvisorState) {
	t.Helper()
	sh := s.shardFor(id)
	err := sh.submit(context.Background(), func(context.Context) error {
		tn, err := sh.tenantFor(id)
		if err != nil {
			return err
		}
		st = tn.adv.State()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.StreamLat == nil {
		t.Fatalf("%s has no streaming session", id)
	}
	return st
}

// TestStateFileFallback: a state file that is damaged, of an unknown
// version, ahead of the store or for another history is ignored — the
// tenant replays from create and answers byte-identically, and is
// neither quarantined nor restored from the bad file.
func TestStateFileFallback(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	tenants := []string{"alpha", "beta"}
	reseal := func(t *testing.T, path string, edit func(p []byte) []byte) {
		t.Helper()
		p, err := checkpoint.LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.SaveSnapshot(path, edit(bytes.Clone(p))); err != nil {
			t.Fatal(err)
		}
	}
	damage := map[string]func(t *testing.T, path string){
		"byte flip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			if err := os.Truncate(path, 40); err != nil {
				t.Fatal(err)
			}
		},
		"unknown version": func(t *testing.T, path string) {
			reseal(t, path, func(p []byte) []byte { p[0] = stateVersion + 1; return p })
		},
		"ahead of the store": func(t *testing.T, path string) {
			reseal(t, path, func(p []byte) []byte { p[8]++; return p })
		},
		"another history": func(t *testing.T, path string) {
			reseal(t, path, func(p []byte) []byte { p[16] ^= 1; return p })
		},
		"trailing bytes": func(t *testing.T, path string) {
			reseal(t, path, func(p []byte) []byte { return append(p, 0, 0, 0, 0, 0, 0, 0, 0) })
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1, hs1 := newTestServer(t, ctx, dir, Config{})
			if ig := stateIgnored(t, hs1.URL); len(ig) != 0 {
				t.Fatalf("a directory without state files lists state_ignored %v", ig)
			}
			before := runTrace(t, hs1.URL, tenants)
			hs1.Close()
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			hurt(t, filepath.Join(dir, "alpha.ncstate"))

			s2, hs2 := newTestServer(t, ctx, dir, Config{})
			defer s2.Close()
			defer hs2.Close()
			if q := s2.Quarantined(); len(q) != 0 {
				t.Fatalf("a bad state file quarantined %v", q)
			}
			if ig := stateIgnored(t, hs2.URL); !slices.Equal(ig, []string{"alpha"}) {
				t.Fatalf("healthz state_ignored = %v, want [alpha]", ig)
			}
			if a := s2.shardFor("alpha").tenants["alpha"]; a.sealed != 0 {
				t.Fatalf("alpha restored from a bad state file at sequence %d", a.sealed)
			}
			if b := s2.shardFor("beta").tenants["beta"]; b.sealed == 0 {
				t.Fatal("beta's intact state file was not used")
			}
			after := probeAll(t, hs2.URL, tenants)
			for _, id := range tenants {
				if before[id] != after[id] {
					t.Fatalf("%s diverged:\nbefore: %s\nafter:  %s", id, before[id], after[id])
				}
			}
			code, body := doReq(t, http.MethodPost, hs2.URL+"/v1/tenants/alpha/advance", `{"dt":1}`)
			mustStatus(t, http.StatusOK, code, body)
			hs2.Close()
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}

			// The drain sealed alpha afresh, and a missing state file is
			// absent, not ignored: with beta's removed, the restart
			// restores alpha, replays beta and lists nothing.
			if err := os.Remove(filepath.Join(dir, "beta.ncstate")); err != nil {
				t.Fatal(err)
			}
			s3, hs3 := newTestServer(t, ctx, dir, Config{})
			defer s3.Close()
			defer hs3.Close()
			if ig := stateIgnored(t, hs3.URL); len(ig) != 0 {
				t.Fatalf("a clean restart lists state_ignored %v", ig)
			}
			if a := s3.shardFor("alpha").tenants["alpha"]; a.sealed == 0 {
				t.Fatal("alpha's resealed state file was not used")
			}
			if after := probeAll(t, hs3.URL, []string{"beta"}); after["beta"] != before["beta"] {
				t.Fatalf("beta diverged after replay from create:\nbefore: %s\nafter:  %s", before["beta"], after["beta"])
			}
		})
	}
}

// stateIgnored returns the /healthz state_ignored list.
func stateIgnored(t *testing.T, base string) []string {
	t.Helper()
	code, body := doReq(t, http.MethodGet, base+"/healthz", "")
	mustStatus(t, http.StatusOK, code, body)
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.StateIgnored == nil {
		t.Fatalf("healthz has no state_ignored list: %s", body)
	}
	return h.StateIgnored
}

// FuzzRestoreState feeds arbitrary bytes to a tenant's state file. Read
// as the file, any bytes must end in an ignored state (replay from
// create) or a restored tenant that answers exactly like the replayed
// one. Read as a payload behind a valid seal, any bytes must decode to
// an error or to a state whose restore fails or yields a tenant that
// answers without panicking; never a panic, a hang or an allocation
// beyond the config's caps.
func FuzzRestoreState(f *testing.F) {
	s, err := New(context.Background(), Config{Dir: f.TempDir(), SnapshotEvery: 1 << 30})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	cfg := TenantConfig{VMs: 6, Seed: 4, Steps: 3, Racks: 4, ServersPerRack: 4, Gap: 5, Threshold: 0.5}
	ops := []op{
		{Kind: opCreate, Cfg: &cfg},
		{Kind: opCalibrate},
		{Kind: opAdvance, Dt: 3 * 86400},
		{Kind: opStreamBegin},
		{Kind: opStreamPair, Src: 0, Dst: 1, Lat: []float64{1e-3, 1.1e-3, 0.9e-3}, Bw: []float64{1e8, 1.1e8, 0.9e8}},
	}
	const id = "fz"
	tn := createJournaled(f, s, id, ops[0])
	for _, o := range ops[1:] {
		applyJournaled(f, tn, o)
	}
	if err := tn.sealState(); err != nil {
		f.Fatal(err)
	}
	tn.store.Close()
	file, err := os.ReadFile(s.statePath(id))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	journal, err := os.ReadFile(s.journalPath(id))
	if err != nil {
		f.Fatal(err)
	}
	snap, _ := os.ReadFile(s.snapPath(id)) // absent: no compaction ran
	// The reference answer: the same journal replayed from create.
	if err := os.Remove(s.statePath(id)); err != nil {
		f.Fatal(err)
	}
	store := openTestStore(f, s, id)
	replayed, err := rebuildTenant(s, id, store)
	if err != nil {
		f.Fatal(err)
	}
	want := encodeBody(replayed.status())
	store.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.journalPath(id), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			if err := os.WriteFile(s.snapPath(id), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// As the file on disk: ignored, or restored exactly.
		if err := os.WriteFile(s.statePath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		store := openTestStore(t, s, id)
		tn, err := rebuildTenant(s, id, store)
		if err != nil {
			t.Fatalf("a state file must never fail the rebuild: %v", err)
		}
		if got := encodeBody(tn.status()); !bytes.Equal(got, want) {
			t.Fatalf("state file restored a tenant answering\n%s\nnot\n%s", got, want)
		}
		store.Close()

		// As a sealed payload: an error, or a tenant that still answers.
		if err := checkpoint.SaveSnapshot(s.statePath(id), data); err != nil {
			t.Fatal(err)
		}
		store = openTestStore(t, s, id)
		defer store.Close()
		if tn, err = rebuildTenant(s, id, store); err != nil {
			t.Fatalf("a state payload must never fail the rebuild: %v", err)
		}
		tn.status()
		g := tn.adv.Guidance()
		for _, st := range []core.Strategy{core.RPCA, core.Heuristics, core.Baseline} {
			adviseAnswer(id, g, st, 0, 1<<20)
		}
	})
}
