// Command nowsim runs one NOW churn simulation and prints the invariant
// timeline: population, cluster counts, worst Byzantine fraction, overlay
// degrees — the live view of Theorem 3 holding (or, with ablation flags,
// failing).
//
// With -runs R > 1 it instead fans R independent replicas of the same
// scenario (seeds seed, seed+1, ..., seed+R-1) across -parallel workers
// (0, the default, means GOMAXPROCS; the count is passed to
// nowover.ForEachRun, not set process-wide) and prints one summary line
// per replica plus an aggregate verdict — the Monte-Carlo view of the
// same invariant. Per-operation costs are sketched (exact count, mean
// and max; rank-bounded quantiles), so memory stays flat in -steps.
//
// Examples:
//
//	nowsim -N 4096 -n0 1024 -tau 0.2 -steps 4000
//	nowsim -N 4096 -n0 512 -tau 0.25 -schedule grow -steps 3000
//	nowsim -N 2048 -tau 0.3 -attack joinleave -noshuffle -steps 2000
//	nowsim -N 2048 -tau 0.25 -steps 2000 -runs 16        # replica sweep
//	nowsim -N 65536 -steps 400 -cpuprofile cpu.out       # profile a run
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"nowover"
	"nowover/internal/prof"
)

// config is the parsed and defaulted command line: n0 and the audit
// cadence are resolved, the replica count validated.
type config struct {
	maxN       int
	n0         int
	tau        float64
	steps      int
	seed       uint64
	k          float64
	schedule   string
	attack     string
	noShuffle  bool
	merge      string
	every      int
	runs       int
	parallel   int
	opsPerStep int
	grouped    bool
	// reportSet records whether -report was given explicitly, so sweep
	// mode can warn that it will be ignored.
	reportSet bool
	prof      prof.Flags
}

// parseConfig parses the command line and applies the derived defaults.
func parseConfig(args []string) (*config, error) {
	fs := flag.NewFlagSet("nowsim", flag.ContinueOnError)
	c := &config{}
	fs.IntVar(&c.maxN, "N", 4096, "name-space bound N (max network size)")
	fs.IntVar(&c.n0, "n0", 0, "initial size (default N/4)")
	fs.Float64Var(&c.tau, "tau", 0.20, "adversary corruption budget (fraction)")
	fs.IntVar(&c.steps, "steps", 2000, "time steps to simulate")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.Float64Var(&c.k, "k", 2, "cluster size security parameter K")
	fs.StringVar(&c.schedule, "schedule", "steady", "size schedule: steady | grow | shrink | oscillate | flash")
	fs.StringVar(&c.attack, "attack", "none", "adversary strategy: none | joinleave | dos")
	fs.BoolVar(&c.noShuffle, "noshuffle", false, "ablation: disable all shuffling (exchange on join/leave, cascades)")
	fs.StringVar(&c.merge, "merge", "absorb", "merge strategy: absorb | rejoin")
	fs.IntVar(&c.every, "report", 0, "print an audit every k steps (default steps/10)")
	fs.IntVar(&c.runs, "runs", 1, "independent replicas to run (seeds seed..seed+runs-1)")
	fs.IntVar(&c.parallel, "parallel", 0, "worker count for -runs: 1 = serial, 0 = GOMAXPROCS")
	fs.IntVar(&c.opsPerStep, "ops-per-step", 1, "operations per time step: > 1 decides them together and runs them as one batch, settled once")
	fs.BoolVar(&c.grouped, "grouped-cascade", false, "batch each leave's cascade into one grouped shuffle round over the receiver set (~|C| write footprint instead of ~|C|^2)")
	c.prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "report" {
			c.reportSet = true
		}
	})
	if c.n0 == 0 {
		c.n0 = c.maxN / 4
	}
	if c.every == 0 {
		c.every = c.steps / 10
		if c.every == 0 {
			c.every = 1
		}
	}
	if c.runs < 1 {
		return nil, fmt.Errorf("-runs must be >= 1, got %d", c.runs)
	}
	if c.parallel < 0 {
		return nil, fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS), got %d", c.parallel)
	}
	return c, nil
}

// simConfig builds the simulation config for one replica seed. Selection
// errors (unknown schedule, attack or merge strategy) surface here.
func (c *config) simConfig(runSeed uint64) (nowover.SimConfig, error) {
	cfg := nowover.SimConfig{
		Core:          nowover.DefaultConfig(c.maxN),
		InitialSize:   c.n0,
		Tau:           c.tau,
		Steps:         c.steps,
		Seed:          runSeed,
		AuditEvery:    c.every,
		SampleOpCosts: true,
	}
	cfg.Core.Seed = runSeed
	cfg.Core.K = c.k
	cfg.Core.GroupedCascade = c.grouped
	cfg.OpsPerStep = c.opsPerStep
	if c.noShuffle {
		cfg.Core.ExchangeOnJoin = false
		cfg.Core.ExchangeOnLeave = false
		cfg.Core.LeaveCascade = false
	}
	switch c.merge {
	case "absorb":
		cfg.Core.MergeStrategy = nowover.MergeAbsorbRandom
	case "rejoin":
		cfg.Core.MergeStrategy = nowover.MergeRejoinAll
	default:
		return cfg, fmt.Errorf("unknown merge strategy %q", c.merge)
	}

	switch c.schedule {
	case "steady":
		cfg.Schedule = nowover.Steady{Size: c.n0}
	case "grow":
		cfg.Schedule = nowover.Linear{From: c.n0, To: c.maxN, Steps: c.steps}
	case "shrink":
		cfg.Schedule = nowover.Linear{From: c.n0, To: c.n0 / 4, Steps: c.steps}
	case "oscillate":
		cfg.Schedule = nowover.Oscillate{Lo: c.n0 / 2, Hi: c.n0 * 2, Period: c.steps / 2}
	case "flash":
		cfg.Schedule = nowover.FlashCrowd{Base: c.n0, Peak: c.n0 * 2, SpikeAt: c.steps / 3, SpikeLen: c.steps / 3}
	default:
		return cfg, fmt.Errorf("unknown schedule %q", c.schedule)
	}

	budget := nowover.Budget{Tau: c.tau}
	switch c.attack {
	case "none":
		// default RandomChurn
	case "joinleave":
		cfg.Strategy = &nowover.JoinLeaveAttack{Budget: budget}
		cfg.InstallHijacker = true
	case "dos":
		cfg.Strategy = &nowover.DOSAttack{Budget: budget}
		cfg.InstallHijacker = true
	default:
		return cfg, fmt.Errorf("unknown attack %q", c.attack)
	}
	return cfg, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nowsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	c, err := parseConfig(args)
	if err != nil {
		return err
	}
	stopProfiles, err := c.prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	if c.runs > 1 && c.reportSet {
		fmt.Fprintln(os.Stderr, "nowsim: -report is ignored with -runs > 1 (replica sweeps print summaries, not audit timelines)")
	}
	// Validate the flag set once before fanning out.
	refCfg, err := c.simConfig(c.seed)
	if err != nil {
		return err
	}

	fmt.Printf("nowsim: N=%d n0=%d tau=%.2f K=%.1f steps=%d schedule=%s attack=%s shuffle=%v merge=%s ops/step=%d grouped-cascade=%v\n",
		c.maxN, c.n0, c.tau, c.k, c.steps, c.schedule, c.attack, !c.noShuffle, c.merge, c.opsPerStep, c.grouped)
	fmt.Printf("cluster size target %d (split >%d, merge <%d), overlay degree target %d (cap %d)\n\n",
		refCfg.Core.TargetClusterSize(), refCfg.Core.SplitThreshold(), refCfg.Core.MergeThreshold(),
		refCfg.Core.TargetDegree(), refCfg.Core.DegreeCap())

	if c.runs > 1 {
		return runReplicas(c.simConfig, c.seed, c.runs, c.parallel)
	}

	res, err := nowover.Simulate(refCfg)
	if err != nil {
		return err
	}

	fmt.Println("step timeline (sampled):")
	for i, a := range res.Audits {
		fmt.Printf("  t=%-6d %s\n", i*c.every, a)
	}
	fmt.Printf("\nfinal: %s\n", res.Final.String())
	fmt.Printf("stats: joins=%d leaves=%d splits=%d merges=%d swaps=%d\n",
		res.Stats.Joins, res.Stats.Leaves, res.Stats.Splits, res.Stats.Merges, res.Stats.Swaps)
	fmt.Printf("security: maxByzFracEver=%.3f degradedEvents=%d capturedEvents=%d hijackedWalks=%d\n",
		res.Stats.MaxByzFractionEver, res.Stats.DegradedEvents, res.Stats.CapturedEvents,
		res.Stats.HijackedWalks)
	fmt.Printf("degraded steps: %d/%d  captured steps: %d/%d\n",
		res.DegradedSteps, res.Steps, res.CapturedSteps, res.Steps)
	if res.BatchedOps > 0 {
		fmt.Printf("batches: %d batched ops (%d skipped: target vanished)\n",
			res.BatchedOps, res.SkippedOps)
	}
	fmt.Printf("size range: [%d, %d]\n", res.TroughSize, res.PeakSize)
	fmt.Printf("cost: %v\n", res.TotalCost)
	if res.OpCosts.JoinMsgs.N() > 0 {
		fmt.Printf("per-op: join mean=%.0f p95=%.0f msgs; leave mean=%.0f p95=%.0f msgs\n",
			res.OpCosts.JoinMsgs.Mean(), res.OpCosts.JoinMsgs.Quantile(0.95),
			res.OpCosts.LeaveMsgs.Mean(), res.OpCosts.LeaveMsgs.Quantile(0.95))
	}
	printClassHists(&res.OpCosts)
	verdict := "HELD"
	if res.Stats.CapturedEvents > 0 {
		verdict = "VIOLATED (cluster captured)"
	}
	fmt.Printf("\nTheorem 3 invariant: %s\n", verdict)
	return nil
}

// printClassHists summarizes the per-traffic-class message histograms of
// the sampled operations: count, rank-exact p50/p99 located to within
// one power of two (the log-scale bucket width). Every
// histogram covers ALL sampled ops (zero charges included); classes no
// operation used are omitted from the printout.
func printClassHists(oc *nowover.SimOpCosts) {
	printed := false
	for c := 0; c < nowover.NumTrafficClasses; c++ {
		h := &oc.ClassMsgs[c]
		if h.N() == h.Bucket(0) {
			continue // no op charged this class anything
		}
		if !printed {
			fmt.Println("per-op msgs by class (log2 buckets over all sampled ops, p50/p99 are bucket upper bounds):")
			printed = true
		}
		fmt.Printf("  %-13s n=%-7d p50<%.3g p99<%.3g\n",
			nowover.TrafficClass(c), h.N(), h.Quantile(0.5), h.Quantile(0.99))
	}
}

// runReplicas fans runs independent replicas across parallel workers (0 =
// GOMAXPROCS; each replica with its own derived seed and world) and prints
// per-replica summaries in seed order plus the aggregate Theorem 3
// verdict.
func runReplicas(makeConfig func(uint64) (nowover.SimConfig, error), seed uint64, runs, parallel int) error {
	fmt.Printf("replica sweep: %d runs on %d worker(s)\n\n", runs, nowover.Workers(parallel))
	results := make([]*nowover.SimResult, runs)
	err := nowover.ForEachRun(parallel, runs, func(i int) error {
		cfg, err := makeConfig(seed + uint64(i))
		if err != nil {
			return err
		}
		cfg.AuditEvery = 0 // timelines are per-run noise in sweep mode
		res, err := nowover.Simulate(cfg)
		if err != nil {
			return fmt.Errorf("replica %d (seed %d): %w", i, seed+uint64(i), err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}

	captured := 0
	degraded := 0
	worst := 0.0
	for i, res := range results {
		verdict := "HELD"
		if res.Stats.CapturedEvents > 0 {
			verdict = "VIOLATED"
			captured++
		}
		if res.Stats.DegradedEvents > 0 {
			degraded++
		}
		if res.Stats.MaxByzFractionEver > worst {
			worst = res.Stats.MaxByzFractionEver
		}
		fmt.Printf("  run %-3d seed=%-6d maxByzFrac=%.3f degraded=%-4d captured=%-4d dwell=%4.1f%%/%4.1f%%  %s\n",
			i, seed+uint64(i), res.Stats.MaxByzFractionEver,
			res.Stats.DegradedEvents, res.Stats.CapturedEvents,
			100*float64(res.DegradedSteps)/float64(res.Steps),
			100*float64(res.CapturedSteps)/float64(res.Steps),
			verdict)
	}
	// Cross-replica per-op cost distribution: per-replica accumulators
	// merged in seed (submission) order, so the aggregate is deterministic
	// at any -parallel setting.
	var agg nowover.SimOpCosts
	for _, res := range results {
		agg.Merge(&res.OpCosts)
	}
	if agg.JoinMsgs.N() > 0 {
		fmt.Printf("\nper-op across replicas: join n=%d mean=%.0f p50=%.0f p95=%.0f; leave n=%d mean=%.0f p50=%.0f p95=%.0f msgs\n",
			agg.JoinMsgs.N(), agg.JoinMsgs.Mean(), agg.JoinMsgs.Quantile(0.5), agg.JoinMsgs.Quantile(0.95),
			agg.LeaveMsgs.N(), agg.LeaveMsgs.Mean(), agg.LeaveMsgs.Quantile(0.5), agg.LeaveMsgs.Quantile(0.95))
	}
	fmt.Printf("\naggregate: %d/%d runs captured, %d/%d degraded, worst byz fraction %.3f\n",
		captured, runs, degraded, runs, worst)
	verdict := "HELD"
	if captured > 0 {
		verdict = fmt.Sprintf("VIOLATED in %d/%d runs", captured, runs)
	}
	fmt.Printf("Theorem 3 invariant across replicas: %s\n", verdict)
	return nil
}
