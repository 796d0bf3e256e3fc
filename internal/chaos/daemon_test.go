package chaos

import (
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

var (
	daemonBuildOnce sync.Once
	builtDaemon     string
	daemonBuildErr  error
)

// realDaemon builds cmd/netconstantd once per test run.
func realDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping real-binary daemon oracle")
	}
	daemonBuildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "chaos-daemon-bin-*")
		if err != nil {
			daemonBuildErr = err
			return
		}
		builtDaemon = filepath.Join(dir, "netconstantd")
		out, err := exec.Command("go", "build", "-o", builtDaemon, "netconstant/cmd/netconstantd").CombinedOutput()
		if err != nil {
			daemonBuildErr = err
			builtDaemon = string(out)
		}
	})
	if daemonBuildErr != nil {
		t.Fatalf("building netconstantd: %v: %s", daemonBuildErr, builtDaemon)
	}
	return builtDaemon
}

// TestDaemonOracleHolds SIGKILLs a real netconstantd at seeded points
// and requires restart-equivalence plus per-tenant quarantine
// containment — the oracle must report no failures.
func TestDaemonOracleHolds(t *testing.T) {
	opts := Options{Daemon: realDaemon(t)}
	// Two seeds land the SIGKILL at different trace offsets (KillPoint
	// derives from the seed when the plan carries no kill op).
	for _, p := range []Plan{
		{Seed: 3},
		{Seed: 8, Ops: []Op{{Kind: OpKill, N: 5}}},
	} {
		if fails := oracleDaemon(p, opts); len(fails) > 0 {
			t.Errorf("daemon oracle failures for seed %d:", p.Seed)
			for _, f := range fails {
				t.Errorf("  %s", f)
			}
		}
	}
}

// TestRunOraclesWithoutDaemonSkips keeps the zero Options equivalent to
// the in-process oracles for the daemon oracle too.
func TestRunOraclesWithoutDaemonSkips(t *testing.T) {
	p := Plan{Seed: 9, Ops: []Op{{Kind: OpTruncate, N: 1}}}
	a := inProcessOracles(p)
	b := RunOracles(p, Options{})
	if len(a) != len(b) {
		t.Fatalf("RunOracles(zero Options) = %v, in-process oracles = %v", b, a)
	}
}
