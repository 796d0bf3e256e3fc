// Command netconstant is the interactive CLI for the library: it
// provisions a synthetic virtual cluster (or replays a recorded trace),
// calibrates the temporal performance matrix, runs the RPCA analysis, and
// prints the constant component, Norm(N_E), the effectiveness grade, and
// the communication trees each strategy would build.
//
// Subcommands:
//
//	advise   provision + calibrate + analyze + recommend (default)
//	record   record a performance trace of a synthetic cluster to a file
//	replay   analyze a recorded trace file
//	schedule print the paired calibration schedule for N machines
//	triangles analyze triangle-inequality violations of a cluster
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"netconstant/internal/cli"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/faults"
	"netconstant/internal/mpi"
	"netconstant/internal/netcoord"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func main() {
	if len(os.Args) < 2 || os.Args[1][0] == '-' {
		runAdvise(os.Args[1:])
		return
	}
	switch os.Args[1] {
	case "advise":
		runAdvise(os.Args[2:])
	case "record":
		runRecord(os.Args[2:])
	case "replay":
		runReplay(os.Args[2:])
	case "schedule":
		runSchedule(os.Args[2:])
	case "triangles":
		runTriangles(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q (want advise|record|replay|schedule|triangles)\n", os.Args[1])
		os.Exit(cli.ExitUsage)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "netconstant:", err)
	os.Exit(cli.ExitFailure)
}

func provision(vms int, seed int64) (*cloud.Provider, *cloud.VirtualCluster) {
	p := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16},
		Seed: seed,
	})
	vc, err := p.Provision(vms, seed+1)
	if err != nil {
		fail(err)
	}
	return p, vc
}

func runAdvise(args []string) {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	vms := fs.Int("vms", 16, "virtual cluster size")
	seed := fs.Int64("seed", 1, "random seed")
	steps := fs.Int("steps", 10, "time step (TP-matrix rows)")
	msg := fs.Float64("msg", 8<<20, "message size in bytes for tree planning")
	root := fs.Int("root", 0, "collective root rank")
	probeLoss := fs.Float64("probe-loss", 0, "fault scenario: probability each probe is lost")
	heavyTail := fs.Float64("heavy-tail", 0, "fault scenario: probability of a heavy-tailed slow probe")
	stragglers := fs.Int("stragglers", 0, "fault scenario: number of persistently slow VMs")
	blackoutRack := fs.Bool("blackout-rack", false, "fault scenario: black out the first VM's rack")
	blackoutStart := fs.Float64("blackout-start", 0, "blackout start, seconds of cluster time")
	blackoutDur := fs.Float64("blackout-dur", 300, "blackout duration, seconds")
	churn := fs.Float64("churn", 0, "fault scenario: per-VM churn events per day")
	fs.Parse(args)

	p, vc := provision(*vms, *seed)
	rng := stats.NewRNG(*seed + 2)

	faulty := *probeLoss > 0 || *heavyTail > 0 || *stragglers > 0 || *blackoutRack || *churn > 0
	var cluster cloud.Cluster = vc
	var fc *faults.Cluster
	cfg := core.AdvisorConfig{TimeStep: *steps}
	if faulty {
		sc := faults.Scenario{
			Seed:          *seed + 3,
			ProbeLoss:     *probeLoss,
			HeavyTailProb: *heavyTail,
			Stragglers:    *stragglers,
			ChurnRate:     *churn,
		}
		if *blackoutRack {
			rack := p.Topo.Node(vc.Hosts[0]).Rack
			sc.Blackouts = []faults.Blackout{
				faults.RackBlackout(p.Topo, vc.Hosts, rack, *blackoutStart, *blackoutDur),
			}
		}
		fc = faults.Wrap(vc, sc)
		cluster = fc
		// Fault scenarios need the resilient calibration pipeline: retries,
		// MAD screening, and honest missing-cell masking.
		cfg.Calibration.Resilient = true
	}

	adv := core.NewAdvisor(cluster, rng, cfg)
	fmt.Printf("calibrating %d x all-link measurements on %d VMs...\n", *steps, *vms)
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		fail(err)
	}
	if fc != nil {
		counts := fc.EventCounts()
		fmt.Printf("fault events:")
		for _, k := range []faults.EventKind{
			faults.EventProbeLoss, faults.EventHeavyTail,
			faults.EventBlackoutDrop, faults.EventChurnDrop,
		} {
			if counts[k] > 0 {
				fmt.Printf(" %s=%d", k, counts[k])
			}
		}
		fmt.Println()
	}
	report(adv, *msg, *root)
}

func report(adv *core.Advisor, msg float64, root int) {
	fmt.Printf("calibration cost: %.1f s of cluster time\n", adv.CalibrationCost())
	fmt.Printf("Norm(N_E) = %.4f -> optimizations are %s\n", adv.NormE(), adv.Effectiveness())
	h := adv.Health()
	fmt.Printf("calibration health: coverage %.1f%%, mean quality %.2f, confidence %s\n",
		100*h.Coverage, h.MeanQuality, h.Confidence)
	if eff := adv.EffectiveStrategy(core.RPCA); eff != core.RPCA {
		fmt.Printf("degraded mode: RPCA guidance falls back to %s\n", eff)
	}
	con := adv.Constant()
	fmt.Println("\nconstant-component bandwidth (MB/s):")
	n := con.N
	maxShow := n
	if maxShow > 12 {
		maxShow = 12
	}
	for i := 0; i < maxShow; i++ {
		for j := 0; j < maxShow; j++ {
			if i == j {
				fmt.Printf("%7s", "-")
				continue
			}
			fmt.Printf("%7.1f", con.Bandwth.At(i, j)/1e6)
		}
		fmt.Println()
	}
	if maxShow < n {
		fmt.Printf("(... %dx%d matrix truncated)\n", n, n)
	}

	for _, s := range []core.Strategy{core.Baseline, core.Heuristics, core.RPCA} {
		tree := adv.PlanTree(s, root, msg, nil, nil)
		est := adv.ExpectedTime(tree, mpi.Broadcast, msg)
		fmt.Printf("\n%s broadcast tree (root %d, %.0f-byte msg): depth %d, expected %.4f s\n",
			s, root, msg, tree.Depth(), est)
	}
}

func runRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	vms := fs.Int("vms", 16, "virtual cluster size")
	seed := fs.Int64("seed", 1, "random seed")
	hours := fs.Float64("hours", 24, "trace duration in simulated hours")
	interval := fs.Float64("interval", 1800, "snapshot interval in seconds")
	out := fs.String("o", "trace.gob", "output file")
	fs.Parse(args)

	_, vc := provision(*vms, *seed)
	tr := cloud.Record(vc, *hours*3600, *interval)
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := tr.Encode(f); err != nil {
		fail(err)
	}
	fmt.Printf("recorded %d snapshots of a %d-VM cluster to %s\n", tr.Len(), *vms, *out)
}

func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "trace.gob", "trace file")
	steps := fs.Int("steps", 10, "time step (TP-matrix rows)")
	msg := fs.Float64("msg", 8<<20, "message size in bytes")
	root := fs.Int("root", 0, "collective root rank")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	tr, err := cloud.DecodeTrace(f)
	if err != nil {
		fail(err)
	}
	if tr.Len() < *steps {
		fail(fmt.Errorf("trace has %d snapshots, need at least %d", tr.Len(), *steps))
	}
	rc := cloud.NewReplay(tr)
	adv := core.NewAdvisor(rc, stats.NewRNG(*seed), core.AdvisorConfig{TimeStep: *steps})
	tc := cloud.SnapshotTP(rc, *steps, 0)
	if err := adv.AnalyzeCalibrationCtx(context.Background(), tc); err != nil {
		fail(err)
	}
	fmt.Printf("replaying %s: %d snapshots, %d VMs\n", *in, tr.Len(), tr.N)
	report(adv, *msg, *root)
}

func runSchedule(args []string) {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	n := fs.Int("n", 8, "number of machines")
	fs.Parse(args)
	rounds := cloud.PairSchedule(*n)
	fmt.Printf("paired calibration schedule for %d machines: %d rounds (sequential would need %d)\n",
		*n, len(rounds), *n*(*n-1))
	for i, round := range rounds {
		fmt.Printf("round %3d:", i)
		for _, pr := range round {
			fmt.Printf(" %d->%d", pr[0], pr[1])
		}
		fmt.Println()
	}
}

// runTriangles quantifies the paper's §IV-B argument against network
// coordinates on a synthetic cluster: the fraction of triples whose
// transfer-time "distances" violate the triangle inequality.
func runTriangles(args []string) {
	fs := flag.NewFlagSet("triangles", flag.ExitOnError)
	vms := fs.Int("vms", 16, "virtual cluster size")
	seed := fs.Int64("seed", 1, "random seed")
	msg := fs.Float64("msg", 8<<20, "message size for the transfer-time metric")
	fs.Parse(args)

	_, vc := provision(*vms, *seed)
	vc.SetFreezeDynamics(true)
	w := vc.TruePerf().Weights(*msg)
	st := netcoord.AnalyzeTriangles(w)
	fmt.Printf("cluster of %d VMs, %0.f-byte transfer-time metric:\n", *vms, *msg)
	fmt.Printf("  triples checked:     %d\n", st.Triples)
	fmt.Printf("  violations:          %d (%.2f%%)\n", st.Violations, 100*st.Rate)
	fmt.Printf("  mean severity:       %.2f%%\n", 100*st.MeanSeverity)
	fmt.Printf("  worst violation:     d(%d,%d) exceeds the detour via %d by %.1f%%\n",
		st.Worst.I, st.Worst.K, st.Worst.J, 100*st.Worst.Severity)
	if st.Rate > 0.01 {
		fmt.Println("=> the pair-wise performance is not a metric space; coordinate embeddings (Vivaldi, GNP) cannot represent it (paper §IV-B)")
	}
}
