package chaos

// The fleet oracle checks the campaign supervisor (internal/plan +
// cmd/expfleet's machinery) end to end under supervisor-level chaos:
// children SIGKILLed or SIGSTOPped after a seeded number of journaled
// points, and checkpoint manifests corrupted between attempts. The
// contract it enforces is the supervision theorem of this repo:
//
//   - every recoverably-sabotaged task completes, and the campaign's
//     deterministic results are byte-identical to an undisturbed twin's;
//   - a permanently failing task is quarantined — and ONLY such tasks
//     are: the quarantine set must match the sabotage exactly;
//   - un-sabotaged tasks never pay for their neighbors (continue on
//     failure).
//
// Unlike the in-process oracles this one launches real child processes,
// so it needs an expdriver binary (Options.Driver) and a wall clock
// (Options.Now — injected, since this package forbids reading the clock
// directly). Without a driver it is skipped.

import (
	"bytes"
	"context"
	"os"
	"time"

	"netconstant/internal/plan"
)

// Options configures the oracles that need outside machinery. The zero
// value disables them, keeping RunOracles in-process.
type Options struct {
	// Driver is the expdriver binary the fleet oracle launches campaign
	// children with; empty skips the oracle.
	Driver string
	// Now supplies the supervisor's wall clock. Required when Driver is
	// set (pass time.Now from the command layer).
	Now func() time.Time
	// Daemon is the netconstantd binary the daemon oracle SIGKILLs and
	// restarts; empty skips the oracle.
	Daemon string
}

// supervisorOps extracts the plan's supervisor-level ops; when it has
// none the oracle injects a default kill so every campaign with a
// driver still proves supervision end to end.
func supervisorOps(p Plan) []Op {
	var out []Op
	for _, o := range p.Ops {
		switch o.Kind {
		case OpKillChild, OpStallChild, OpCorruptManifest:
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		out = append(out, Op{Kind: OpKillChild, N: 1})
	}
	return out
}

// oracleFleet builds a three-task campaign — two healthy tasks that the
// plan's supervisor ops sabotage, plus one deliberately doomed task
// (-failafter, a persistent fatal failure) — runs it and its sabotage-
// free twin with real expdriver children, and compares outcomes and
// deterministic results.
func oracleFleet(p Plan, opts Options) (fails []Failure) {
	const oracle = "fleet"
	guard(oracle, &fails, func() {
		healthy := []string{"t0", "t1"}
		cp := &plan.Plan{
			Name: "chaosfleet",
			Seed: p.Seed,
			Tasks: []plan.Task{
				{Name: "t0", Figures: []string{"fig7"}},
				{Name: "t1", Figures: []string{"fig8"}},
				{Name: "doomed", Figures: []string{"fig12"}, Extra: []string{"-failafter", "1"}},
			},
			MaxProcs:        2,
			Retry:           plan.Retry{BaseDelaySec: 0.01, MaxDelaySec: 0.05, JitterFrac: 0.1},
			StallTimeoutSec: 2.0,
			PollIntervalSec: 0.05,
		}

		// Spread the supervisor ops round-robin over the healthy tasks,
		// each op hitting that task's next attempt, and give the retry
		// budget one spare attempt to recover in.
		attempts := map[string]int{}
		maxAttempt := 1
		for i, o := range supervisorOps(p) {
			task := healthy[i%len(healthy)]
			attempts[task]++
			if attempts[task] > maxAttempt {
				maxAttempt = attempts[task]
			}
			after := o.N
			if after < 1 {
				after = 1
			}
			kind := ""
			switch o.Kind {
			case OpKillChild:
				kind = plan.SabotageKill
			case OpStallChild:
				kind = plan.SabotageStall
			case OpCorruptManifest:
				kind = plan.SabotageCorruptManifest
			}
			cp.Sabotage = append(cp.Sabotage, plan.Sabotage{
				Kind: kind, Task: task, Attempt: attempts[task], AfterPoints: after,
			})
		}
		cp.Retry.MaxAttempts = maxAttempt + 2 // the doomed task burns 2, sabotage recovery needs 1 spare

		if err := cp.Validate(); err != nil {
			fails = append(fails, failf(oracle, "campaign plan invalid: %v", err))
			return
		}

		run := func(cp *plan.Plan, dir string) (*plan.Report, []byte, bool) {
			s := &plan.Supervisor{Plan: cp, Driver: opts.Driver, Dir: dir, Now: opts.Now}
			rep, err := s.Run(context.Background())
			if err != nil {
				fails = append(fails, failf(oracle, "supervisor: %v", err))
				return nil, nil, false
			}
			res, err := rep.DeterministicResults(s)
			if err != nil {
				fails = append(fails, failf(oracle, "deterministic results: %v\n%s", err, rep.Render()))
				return nil, nil, false
			}
			return rep, res, true
		}
		sabDir, err := os.MkdirTemp("", "chaos-fleet-")
		if err != nil {
			fails = append(fails, failf(oracle, "mkdtemp: %v", err))
			return
		}
		defer os.RemoveAll(sabDir)
		cleanDir, err := os.MkdirTemp("", "chaos-fleet-")
		if err != nil {
			fails = append(fails, failf(oracle, "mkdtemp: %v", err))
			return
		}
		defer os.RemoveAll(cleanDir)
		sabRep, sabRes, ok := run(cp, sabDir)
		if !ok {
			return
		}
		cleanRep, cleanRes, ok := run(cp.Clean(), cleanDir)
		if !ok {
			return
		}

		check := func(label string, rep *plan.Report, sabotaged bool) {
			for _, tr := range rep.Tasks {
				switch tr.Name {
				case "doomed":
					if tr.Outcome != plan.OutcomeQuarantined {
						fails = append(fails, failf(oracle, "%s: doomed task ended %s, want quarantined", label, tr.Outcome))
					} else if tr.Diagnosis == nil || tr.Diagnosis.JournaledPoints == 0 {
						fails = append(fails, failf(oracle, "%s: doomed task quarantined without a located last point", label))
					}
				default:
					if tr.Outcome != plan.OutcomeOK {
						fails = append(fails, failf(oracle, "%s: task %s ended %s (%+v) — recoverable sabotage must recover",
							label, tr.Name, tr.Outcome, tr.Diagnosis))
					}
					if !sabotaged && tr.Attempts != 1 {
						fails = append(fails, failf(oracle, "%s: undisturbed task %s took %d attempts", label, tr.Name, tr.Attempts))
					}
				}
			}
		}
		check("sabotaged", sabRep, true)
		check("clean", cleanRep, false)
		if !bytes.Equal(sabRes, cleanRes) {
			fails = append(fails, failf(oracle, "sabotaged campaign results diverge from the clean twin:\n--- sabotaged ---\n%s\n--- clean ---\n%s",
				sabRes, cleanRes))
		}
	})
	return fails
}
