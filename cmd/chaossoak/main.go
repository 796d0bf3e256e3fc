// Command chaossoak runs seeded randomized fault campaigns against the
// repository's crash-safety and degradation invariants: journal
// recovery integrity, resume-equals-fresh byte identity, the
// calibration-health fallback ladder under injected faults, and — when
// an expdriver binary is supplied with -driver — end-to-end campaign
// supervision (children killed, wedged, and manifest-corrupted under a
// live expfleet-style supervisor). With -daemon it also checks the
// netconstantd restart-equivalence contract: a daemon SIGKILLed at the
// plan's kill point and restarted on the same journals must answer
// byte-identically to an uninterrupted twin, and a damaged tenant
// journal must quarantine that tenant alone.
//
// Usage:
//
//	chaossoak [-seed N] [-rounds N] [-maxops N] [-driver path/to/expdriver]
//	          [-daemon path/to/netconstantd] [-replay plan.json] [-out report.json]
//
// Every campaign is fully determined by (seed, rounds, maxops): the same
// flags replay the identical op schedule, so a CI failure reproduces
// anywhere. When a round breaks an invariant, the soak shrinks the
// failing plan to a minimal reproducer (greedy delta debugging) and
// prints it as JSON; feed that file back with -replay to re-run exactly
// that plan. Exit status follows the repo convention (internal/cli):
// 0 all invariants held, 1 violations found, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"netconstant/internal/chaos"
	"netconstant/internal/checkpoint"
	"netconstant/internal/cli"
)

func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 1, "campaign seed (same seed, same campaign)")
	rounds := flag.Int("rounds", 3, "fault campaigns to run")
	maxOps := flag.Int("maxops", 6, "maximum ops per generated plan")
	driver := flag.String("driver", "", "expdriver binary: enables the fleet oracle (supervised multi-process campaigns under chaos)")
	daemon := flag.String("daemon", "", "netconstantd binary: enables the daemon oracle (SIGKILL/restart byte-equivalence, per-tenant quarantine)")
	replay := flag.String("replay", "", "re-run one plan from this JSON file instead of generating a campaign")
	out := flag.String("out", "", "also write the campaign report as JSON to this path (atomically)")
	flag.Parse()

	opts := chaos.Options{Driver: *driver, Daemon: *daemon, Now: time.Now}
	oracles := func(p chaos.Plan) []chaos.Failure { return chaos.RunOracles(p, opts) }

	if *replay != "" {
		buf, err := os.ReadFile(*replay)
		if err != nil {
			return cli.Usagef("chaossoak", "%v", err)
		}
		var plan chaos.Plan
		if err := json.Unmarshal(buf, &plan); err != nil {
			return cli.Usagef("chaossoak", "%s: %v", *replay, err)
		}
		fmt.Printf("replaying %s\n", plan)
		fails := oracles(plan)
		if len(fails) == 0 {
			fmt.Println("all invariants held")
			return cli.ExitOK
		}
		for _, f := range fails {
			fmt.Printf("FAIL %s\n", f)
		}
		return cli.ExitFailure
	}

	if *rounds < 1 || *maxOps < 1 {
		return cli.Usagef("chaossoak", "-rounds and -maxops must be ≥ 1")
	}
	rep := chaos.CampaignWith(*seed, *rounds, *maxOps, opts)
	fmt.Print(rep)
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return cli.Failf("chaossoak", "%v", err)
		}
		if err := checkpoint.WriteFileAtomic(*out, append(buf, '\n'), 0o644); err != nil {
			return cli.Failf("chaossoak", "%v", err)
		}
	}

	failed := rep.Failed()
	if len(failed) == 0 {
		fmt.Println("all invariants held")
		return cli.ExitOK
	}

	// Shrink the first failing plan to a minimal reproducer.
	first := failed[0]
	fmt.Printf("\nshrinking failing plan from round %d…\n", first.Round)
	minimal := chaos.Shrink(first.Plan, oracles)
	buf, err := json.MarshalIndent(minimal, "", "  ")
	if err != nil {
		return cli.Failf("chaossoak", "%v", err)
	}
	fmt.Printf("minimal reproducer (%s) — save and re-run with -replay:\n%s\n", minimal, buf)
	return cli.ExitFailure
}
