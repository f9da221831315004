package experiments

import (
	"nowover/internal/adversary"
	"nowover/internal/core"
	"nowover/internal/randnum"
	"nowover/internal/sim"
	"nowover/internal/workload"
)

// ablationRun executes one steady-churn run at the scale's seed, sample
// mode and driver with a mutated config and returns the result.
// Scale.OpsPerStep > 1 switches the cell to the batched churn driver:
// per-operation cost sampling is unavailable there, so it is enabled only
// on the classic driver.
func ablationRun(s Scale, n int, tau float64, steps int,
	strategy adversary.Strategy, mutate func(*core.Config)) (*sim.Result, error) {
	cfg := sim.Config{
		Core:          s.coreConfig(n),
		InitialSize:   n / 2,
		Tau:           tau,
		Steps:         steps,
		Seed:          s.Seed,
		Strategy:      strategy,
		SampleOpCosts: s.OpsPerStep <= 1,
		OpsPerStep:    s.OpsPerStep,
	}
	cfg.Core.Seed = s.Seed
	if mutate != nil {
		mutate(&cfg.Core)
	}
	runner, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return runner.Run()
}

// AblationMergeStrategy compares the paper's two inconsistent merge
// descriptions (DESIGN.md): absorb-random vs rejoin-all, on a shrinking
// network where merges dominate.
func AblationMergeStrategy(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "Ablation: merge strategy (paper ambiguity)",
		Claim: "DESIGN.md: section 3.3 prose, Figure 2 and Algorithm 2 disagree on merge; both readings must preserve the invariants, differing only in cost",
		Columns: []string{"N", "strategy", "merges", "maxByzFrac", "captured",
			"leaveMsgs(mean)", "minDeg", "connected"},
	}
	n := s.Ns[len(s.Ns)-1]
	steps := int(s.OpsFactor * float64(n))
	strategies := []core.MergeStrategy{core.MergeAbsorbRandom, core.MergeRejoinAll}
	if err := t.RunCells(s, len(strategies), func(i int, frag *Table) error {
		strat := strategies[i]
		cfg := sim.Config{
			Core:          s.coreConfig(n),
			InitialSize:   n / 2,
			Tau:           0.20,
			Schedule:      workload.Linear{From: n / 2, To: n / 4, Steps: steps},
			Steps:         steps,
			Seed:          s.Seed,
			SampleOpCosts: true,
		}
		cfg.Core.Seed = s.Seed
		cfg.Core.MergeStrategy = strat
		runner, err := sim.New(cfg)
		if err != nil {
			return err
		}
		res, err := runner.Run()
		if err != nil {
			return err
		}
		frag.AddRow(n, strat.String(), res.Stats.Merges,
			res.Stats.MaxByzFractionEver, res.Stats.CapturedEvents,
			res.OpCosts.LeaveMsgs.Mean(),
			res.Final.MinDegree, res.Final.OverlayConnected)
		return nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationLeaveCascade measures the Theorem 3 proof requirement that
// clusters receiving nodes from a leaving cluster also exchange ("we
// enforce C' to exchange all its nodes"): disabling the cascade cheapens
// leaves but weakens mixing under attack.
func AblationLeaveCascade(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A2",
		Title: "Ablation: leave-cascade exchanges (Theorem 3 proof step)",
		Claim: "Theorem 3 proof: receivers of a leaving cluster's nodes must exchange too, else their composition is no longer a uniform sample",
		Columns: []string{"N", "cascade", "leaveMsgs(mean)", "maxByzFrac",
			"degradedDwell%", "capturedDwell%"},
	}
	n := s.Ns[len(s.Ns)-1]
	steps := int(s.OpsFactor * float64(n))
	cascades := []bool{true, false}
	if err := t.RunCells(s, len(cascades), func(i int, frag *Table) error {
		cascade := cascades[i]
		res, err := ablationRun(s, n, 0.25, steps,
			&adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
			func(c *core.Config) {
				c.LeaveCascade = cascade
				c.K = 4
				c.L = 1.6
			})
		if err != nil {
			return err
		}
		// The batched driver does not sample per-operation costs; render
		// the column as absent rather than a NaN mean.
		leaveMsgs := any("-")
		if s.OpsPerStep <= 1 {
			leaveMsgs = res.OpCosts.LeaveMsgs.Mean()
		}
		frag.AddRow(n, cascade, leaveMsgs,
			res.Stats.MaxByzFractionEver,
			100*float64(res.DegradedSteps)/float64(res.Steps),
			100*float64(res.CapturedSteps)/float64(res.Steps))
		return nil
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the cascade multiplies leave cost by ~|C| but keeps receiver clusters freshly mixed under targeted churn",
		"dwell (time spent with any insecure cluster) is the right comparison: more shuffling means more re-rolls, so raw transition counts would favor a frozen, persistently polluted system")
	return t, nil
}

// AblationDegreeRepair tests OVER's repair pass: without it, a shrinking
// overlay sheds degree and eventually expansion.
func AblationDegreeRepair(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A3",
		Title: "Ablation: OVER degree repair on vertex removal",
		Claim: "OVER reconstruction (DESIGN.md): repairing neighbors below the degree floor preserves Properties 1-2 through removals",
		Columns: []string{"N", "repair", "minDeg", "maxDeg", "spectralGap",
			"isoEstimate", "connected"},
	}
	n := s.Ns[len(s.Ns)-1]
	steps := int(s.OpsFactor * float64(n))
	repairs := []bool{true, false}
	if err := t.RunCells(s, len(repairs), func(i int, frag *Table) error {
		repair := repairs[i]
		cfg := sim.Config{
			Core:        s.coreConfig(n),
			InitialSize: n / 2,
			Tau:         0.10,
			Schedule:    workload.Linear{From: n / 2, To: n / 5, Steps: steps},
			Steps:       steps,
			Seed:        s.Seed,
		}
		cfg.Core.Seed = s.Seed
		cfg.Core.OverlayRepair = repair
		runner, err := sim.New(cfg)
		if err != nil {
			return err
		}
		if _, err := runner.Run(); err != nil {
			return err
		}
		h := runner.World().OverlayHealth(60, 40)
		frag.AddRow(n, repair, h.MinDegree, h.MaxDegree, h.SpectralGap,
			h.IsoEstimate, h.Connected)
		return nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationCommitReveal swaps the idealized randNum for the biasable
// commit-reveal construction and lets the adversary steer: the measured
// gap quantifies how much the paper's (deferred) unbiasable construction
// actually buys.
func AblationCommitReveal(s Scale) (*Table, error) {
	t := &Table{
		ID:    "A4",
		Title: "Ablation: ideal randNum vs biasable commit-reveal under attack",
		Claim: "randNum's security claim (section 3.1): a last-revealer-biasable coin lets the adversary steer walks; the VSS-grade construction does not",
		Columns: []string{"N", "generator", "maxByzFrac", "degradedDwell%",
			"capturedDwell%", "hijackedWalks"},
	}
	n := s.Ns[len(s.Ns)-1] / 2
	steps := int(2 * s.OpsFactor * float64(n))
	gens := []struct {
		name string
		g    randnum.Generator
	}{
		{"ideal", randnum.Ideal{}},
		{"commit-reveal", randnum.CommitReveal{}},
	}
	if err := t.RunCells(s, len(gens), func(i int, frag *Table) error {
		gen := gens[i]
		cfg := sim.Config{
			Core:            s.coreConfig(n),
			InitialSize:     n / 2,
			Tau:             0.25,
			Strategy:        &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.25}},
			Steps:           steps,
			Seed:            s.Seed,
			InstallHijacker: true,
			OpsPerStep:      s.OpsPerStep,
		}
		cfg.Core.Seed = s.Seed
		cfg.Core.K = 3
		cfg.Core.Generator = gen.g
		runner, err := sim.New(cfg)
		if err != nil {
			return err
		}
		// Give the biasable generator an adversary objective: steer walks
		// toward the attack target. The installed hijacker already carries
		// the strategy's snapshot-scoped fixation, so its Score method IS
		// the steer function — one hook object, one batch lifecycle for
		// both redirect and steer decisions.
		if h := runner.Hijacker(); h != nil {
			runner.World().SetSteerHook(h)
		}
		res, err := runner.Run()
		if err != nil {
			return err
		}
		frag.AddRow(n, gen.name, res.Stats.MaxByzFractionEver,
			100*float64(res.DegradedSteps)/float64(res.Steps),
			100*float64(res.CapturedSteps)/float64(res.Steps),
			res.Stats.HijackedWalks)
		return nil
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"commit-reveal should show elevated pollution of the attack target relative to the ideal generator — the cost of last-revealer bias")
	return t, nil
}
