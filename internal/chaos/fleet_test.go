package chaos

import (
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce   sync.Once
	builtDriver string
	buildErr    error
)

// realDriver builds cmd/expdriver once per test run.
func realDriver(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping real-driver fleet oracle")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "chaos-driver-*")
		if err != nil {
			buildErr = err
			return
		}
		builtDriver = filepath.Join(dir, "expdriver")
		out, err := exec.Command("go", "build", "-o", builtDriver, "netconstant/cmd/expdriver").CombinedOutput()
		if err != nil {
			buildErr = err
			builtDriver = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building expdriver: %v: %s", buildErr, builtDriver)
	}
	return builtDriver
}

func TestSupervisorOpsDefaultKill(t *testing.T) {
	ops := supervisorOps(Plan{Seed: 1, Ops: []Op{{Kind: OpProbeLoss, P: 0.1}}})
	if len(ops) != 1 || ops[0].Kind != OpKillChild {
		t.Fatalf("ops = %v, want one default kill-child", ops)
	}
	ops = supervisorOps(Plan{Seed: 1, Ops: []Op{
		{Kind: OpStallChild, N: 2}, {Kind: OpKill, N: 3}, {Kind: OpCorruptManifest},
	}})
	if len(ops) != 2 || ops[0].Kind != OpStallChild || ops[1].Kind != OpCorruptManifest {
		t.Fatalf("ops = %v, want the two supervisor-level ops in order", ops)
	}
}

// inProcessOracles runs the five in-process oracle families directly,
// bypassing RunOracles.
func inProcessOracles(p Plan) []Failure {
	var fails []Failure
	for _, oracle := range []func(Plan) []Failure{oracleJournal, oracleResume, oracleHealth, oracleStream, oracleClos} {
		fails = append(fails, oracle(p)...)
	}
	return fails
}

func TestRunOraclesWithoutDriverSkipsFleet(t *testing.T) {
	// Options' zero value must keep RunOracles equivalent to the five
	// in-process oracles — no driver, no child processes.
	p := Plan{Seed: 4, Ops: []Op{{Kind: OpKillChild, N: 1}}}
	a := inProcessOracles(p)
	b := RunOracles(p, Options{})
	if len(a) != len(b) {
		t.Fatalf("RunOracles(zero Options) = %v, in-process oracles = %v", b, a)
	}
}

// TestFleetOracleHoldsUnderEachOpKind runs the fleet oracle with a real
// expdriver for every supervisor-level op kind: the supervisor must
// recover each sabotage and keep results byte-identical, so the oracle
// reports no failures.
func TestFleetOracleHoldsUnderEachOpKind(t *testing.T) {
	driver := realDriver(t)
	opts := Options{Driver: driver, Now: time.Now}
	for _, kind := range []string{OpKillChild, OpStallChild, OpCorruptManifest} {
		t.Run(kind, func(t *testing.T) {
			p := Plan{Seed: 77, Ops: []Op{{Kind: kind, N: 1}}}
			if fails := oracleFleet(p, opts); len(fails) > 0 {
				t.Errorf("fleet oracle failures under %s:", kind)
				for _, f := range fails {
					t.Errorf("  %s", f)
				}
			}
		})
	}
}
