package experiments

import (
	"fmt"

	"nowover/internal/adversary"
	"nowover/internal/apps"
	"nowover/internal/baseline"
	"nowover/internal/core"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/sim"
	"nowover/internal/workload"
	"nowover/internal/xrand"
)

// E10Applications tests the section 6 claims: clustered broadcast at
// O~(n) vs O(n^2) flooding, sampling at polylog per sample, plus the
// aggregation service built the same way.
func E10Applications(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Application layer: broadcast, sampling, aggregation",
		Claim: "section 6: clustered broadcast O~(n) vs O(n^2) unclustered; sampling polylog(n) msgs per sample",
		Columns: []string{"n", "bcastMsgs", "floodingMsgs", "ratio",
			"sampleMsgs(mean)", "aggMsgs", "aggExact"},
	}
	if err := t.RunCells(s, len(s.Ns), func(i int, frag *Table) error {
		n := s.Ns[i]
		w, err := midWorld(s, n, 0.10, nil)
		if err != nil {
			return err
		}
		var led metrics.Ledger
		src := w.Clusters()[0]
		bc, err := apps.Broadcast(&led, w, src)
		if err != nil {
			return err
		}
		sampler, err := apps.NewSampler(w, w.Walker(), w.Generator())
		if err != nil {
			return err
		}
		r := xrand.New(s.Seed ^ 0xE10)
		var sampleMsgs metrics.Welford
		samples := s.Walks / 4
		if samples < 20 {
			samples = 20
		}
		for i := 0; i < samples; i++ {
			contact, _ := w.RandomCluster(r)
			rep, err := sampler.Sample(&led, r, contact)
			if err != nil {
				return err
			}
			sampleMsgs.Add(float64(rep.Messages))
		}
		agg, err := apps.Aggregate(&led, w, src, func(ids.ClusterID, int) int64 { return 1 })
		if err != nil {
			return err
		}
		ok := agg.Value == agg.Exact
		frag.AddRow(w.NumNodes(), bc.Messages, bc.FloodingMessages,
			float64(bc.FloodingMessages)/float64(bc.Messages),
			sampleMsgs.Mean(), agg.Messages, ok)
		frag.AddAux(float64(w.NumNodes()), float64(bc.Messages))
		return nil
	}); err != nil {
		return nil, err
	}
	xs, ys := t.auxColumns(len(s.Ns), 2)
	if len(xs) >= 2 {
		fit := metrics.FitPowerLaw(xs, ys[0])
		t.Notes = append(t.Notes,
			"broadcast power-law exponent "+formatFloat(fit.Slope)+
				" (O~(n) predicts ~1 + polylog drift; flooding is exactly 2)")
	}
	return t, nil
}

// E11Baselines compares NOW against the prior-work regimes the paper
// positions itself against: (a) static-#clusters under polynomial growth
// — cluster sizes blow up; (b) NOW with shuffling disabled under the
// join-leave attack — the target cluster is polluted, while full NOW
// resists; (c) the single-cluster O(n^2) reduction.
func E11Baselines(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "NOW vs static clustering, no-shuffle ablation, single-cluster reduction",
		Claim: "intro + section 5: static-#C schemes lose the O(log N) cluster size under polynomial growth; without shuffling the join-leave attack pollutes a target cluster (section 3.3)",
		Columns: []string{"N", "system", "growth", "maxClusterSize", "targetSize",
			"maxByzFrac", "insecureDwell", "perOpMsgs"},
	}
	n := s.Ns[len(s.Ns)-1]
	growSteps := int(s.OpsFactor * float64(n) / 2)
	n0 := n / 4

	// Shared reference config: the target-cluster-size column of every row
	// uses the NOW growth run's parameters (K=4, L=1.6).
	refCore := s.coreConfig(n)
	refCore.K = 4
	refCore.L = 1.6
	target := refCore.TargetClusterSize()

	// The four expensive system runs — (a) NOW growth, (b) static-#C
	// growth, (c) attack with and without shuffling — are mutually
	// independent: fan them out as cells, splicing rows in section order.
	attackRun := func(frag *Table, shuffled bool) error {
		// Comparison metric is DWELL time in insecure states: shuffling
		// makes many independent re-rolls (each a small tail risk that the
		// next exchange repairs), while without shuffling pollution
		// persists. Raw transition counts would spuriously favor the
		// frozen system.
		acfg := sim.Config{
			Core:            s.coreConfig(n),
			InitialSize:     n / 2,
			Tau:             0.20,
			Strategy:        &adversary.JoinLeaveAttack{Budget: adversary.Budget{Tau: 0.20}},
			Steps:           int(s.OpsFactor * float64(n)),
			Seed:            s.Seed,
			InstallHijacker: true,
		}
		acfg.Core.K = 5
		acfg.Core.L = 1.6
		name := "NOW+attack"
		if !shuffled {
			acfg.Core.Shuffle = core.ShuffleOff
			name = "no-shuffle+attack"
		}
		arunner, err := sim.New(acfg)
		if err != nil {
			return err
		}
		ares, err := arunner.Run()
		if err != nil {
			return err
		}
		dwell := fmt.Sprintf("dwell %.1f%%/%.1f%%",
			100*float64(ares.DegradedSteps)/float64(ares.Steps),
			100*float64(ares.CapturedSteps)/float64(ares.Steps))
		frag.AddRow(n, name, "steady", ares.Final.MaxSize, acfg.Core.TargetClusterSize(),
			ares.Stats.MaxByzFractionEver, dwell, "n/a")
		return nil
	}
	sections := []func(frag *Table) error{
		func(frag *Table) error { // (a) NOW under growth.
			cfg := sim.Config{
				Core:          refCore,
				InitialSize:   n0,
				Tau:           0.20,
				Schedule:      workload.Linear{From: n0, To: n, Steps: growSteps},
				Steps:         growSteps,
				Seed:          s.Seed,
				SampleOpCosts: true,
			}
			runner, err := sim.New(cfg)
			if err != nil {
				return err
			}
			res, err := runner.Run()
			if err != nil {
				return err
			}
			nowDwell := fmt.Sprintf("dwell %.1f%%/%.1f%%",
				100*float64(res.DegradedSteps)/float64(res.Steps),
				100*float64(res.CapturedSteps)/float64(res.Steps))
			frag.AddRow(n, "NOW", "4x", res.Final.MaxSize, target,
				res.Stats.MaxByzFractionEver, nowDwell,
				res.OpCosts.JoinMsgs.Mean())
			return nil
		},
		func(frag *Table) error { // (b) Static-#C under the same growth.
			static, err := baseline.NewStaticCluster(n0/target, n0, 0.20, s.Seed)
			if err != nil {
				return err
			}
			snapBefore := static.Ledger().Snapshot()
			joins := 0
			for static.NumNodes() < n {
				static.Join(false)
				joins++
			}
			staticAudit := static.Audit()
			perOp := float64(static.Ledger().Since(snapBefore).Messages) / float64(joins)
			frag.AddRow(n, "static-#C", "4x", staticAudit.MaxSize, target,
				staticAudit.MaxByzFraction, "n/a", perOp)
			return nil
		},
		func(frag *Table) error { return attackRun(frag, true) },  // (c) full NOW under attack
		func(frag *Table) error { return attackRun(frag, false) }, // (c) no-shuffle strawman
	}
	if err := t.RunCells(s, len(sections), func(i int, frag *Table) error {
		return sections[i](frag)
	}); err != nil {
		return nil, err
	}

	// (d) Single-cluster decision-cost reference.
	var sc baseline.SingleCluster
	t.AddRow(n, "single-cluster", "n/a", n, target,
		0.20, "n/a", float64(sc.DecisionCost(n)))
	t.Notes = append(t.Notes,
		"static-#C keeps tau-level safety only because its clusters balloon to n/#C — the very cost blow-up the paper's intro rejects; NOW keeps clusters at Theta(log N)",
		"attack rows run at tau=0.20, K=5, L=1.6 — the k-adequate regime: full NOW should show no captured dwell while the no-shuffle strawman's target cluster is ratcheted toward total capture")
	return t, nil
}

// E12SecurityMargins sweeps tau toward the 1/3 boundary and the security
// parameter K, measuring failure rates — the finite-size content of
// Lemma 1's "k large enough" and Remarks 1-2.
func E12SecurityMargins(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Failure rates vs tau (toward 1/3) and security parameter K",
		Claim: "Lemma 1 + Remarks: capture probability decays exponentially in K; tau approaching 1/3 erases the margin",
		Columns: []string{"N", "tau", "K", "|C|target", "steps",
			"degradedEvents", "capturedEvents", "maxByzFrac"},
	}
	n := s.Ns[len(s.Ns)-1] / 2 // keep the sweep affordable
	steps := int(s.OpsFactor * float64(n))
	cells := gridCells([]float64{0.10, 0.20, 0.30, 0.33}, []float64{1, 2, 4})
	if err := t.RunCells(s, len(cells), func(i int, frag *Table) error {
		tau, k := cells[i].a, cells[i].b
		cfg := sim.Config{
			Core:        s.coreConfig(n),
			InitialSize: n / 2,
			Tau:         tau,
			Steps:       steps,
			Seed:        s.Seed,
		}
		cfg.Core.K = k
		runner, err := sim.New(cfg)
		if err != nil {
			return err
		}
		res, err := runner.Run()
		if err != nil {
			return err
		}
		frag.AddRow(n, tau, k, cfg.Core.TargetClusterSize(), res.Steps,
			res.Stats.DegradedEvents, res.Stats.CapturedEvents,
			res.Stats.MaxByzFractionEver)
		return nil
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"reading guide: at fixed tau, events should fall sharply as K doubles (Chernoff in |C|); at fixed K, tau -> 1/3 erases the epsilon margin exactly as the theory requires")
	return t, nil
}
