package experiments

import (
	"fmt"
	"math"

	"nowover/internal/core"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/sim"
	"nowover/internal/xrand"
)

// E1HonestyUnderChurn tests Theorem 3: over a polynomially long churn
// sequence, every cluster keeps more than two thirds honest nodes w.h.p.
// For each (N, tau) it runs OpsFactor*N steady-churn time steps and
// reports the worst per-cluster Byzantine fraction ever observed, the
// number of >=1/3 and >=1/2 transitions, and the fraction of steps spent
// with any insecure cluster.
func E1HonestyUnderChurn(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Cluster honesty under sustained Byzantine churn",
		Claim: "Theorem 3: whp every cluster stays > 2/3 honest at every step of a poly(N) join/leave sequence (tau <= 1/3 - eps)",
		Columns: []string{"N", "tau", "steps", "maxByzFrac", "degradedEvents",
			"capturedEvents", "degradedStep%", "capturedStep%"},
	}
	taus := []float64{0.10, 0.20, 0.30}
	cells := gridCells(s.Ns, taus)
	if err := t.RunCells(s, len(cells), func(i int, frag *Table) error {
		n, tau := cells[i].a, cells[i].b
		cfg := sim.Config{
			Core:        s.coreConfig(n),
			InitialSize: n / 2,
			Tau:         tau,
			Steps:       int(s.OpsFactor * float64(n)),
			Seed:        s.Seed,
		}
		cfg.Core.Seed = s.Seed
		// "k large enough" regime: the smallest tolerated cluster is
		// K*log2(N)/L; K=4, L=1.6 pushes Lemma 1's tail below the
		// re-roll budget at tau <= 0.2 even for the smallest N here.
		cfg.Core.K = 4
		cfg.Core.L = 1.6
		runner, err := sim.New(cfg)
		if err != nil {
			return err
		}
		res, err := runner.Run()
		if err != nil {
			return err
		}
		frag.AddRow(n, tau, res.Steps,
			res.Stats.MaxByzFractionEver,
			res.Stats.DegradedEvents,
			res.Stats.CapturedEvents,
			100*float64(res.DegradedSteps)/float64(res.Steps),
			100*float64(res.CapturedSteps)/float64(res.Steps))
		return nil
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"run at K=4, L=1.6 (the theorem's 'k large enough'); expect a gradient: clean at tau=0.1, marginal at 0.2, failing at 0.3 where the 1/3-eps margin is gone",
		"captured events (>= 1/2 Byzantine clusters) are full protocol failures; degraded (>= 1/3) marks the quorum rule at risk",
		"E12 charts the same failure rates against K — the knob that buys the w.h.p.")
	return t, nil
}

// E2PostExchangeTail tests Lemma 1: right after a cluster exchanges all
// its nodes, P(p_C > tau(1+eps)) <= N^-gamma. It sweeps the security
// parameter K, measures the empirical tail over repeated exchanges, and
// compares with the Chernoff bound exp(-eps^2 tau |C| / 3).
func E2PostExchangeTail(s Scale) (*Table, error) {
	const tau, eps = 0.30, 0.50
	t := &Table{
		ID:    "E2",
		Title: "Post-exchange Byzantine fraction tail vs Chernoff bound",
		Claim: "Lemma 1: after a full exchange, P(p_C > tau(1+eps)) <= n^-gamma for k large enough",
		Columns: []string{"N", "K", "|C|", "exchanges", "meanFrac",
			"P(frac>tau(1+eps))", "chernoffBound"},
	}
	n := s.Ns[len(s.Ns)-1]
	ks := []float64{1, 2, 3, 4}
	if err := t.RunCells(s, len(ks), func(i int, frag *Table) error {
		k := ks[i]
		cfg := s.coreConfig(n)
		cfg.K = k
		cfg.Seed = s.Seed
		w, err := core.NewWorld(cfg)
		if err != nil {
			return err
		}
		byzBudget := int(tau * float64(n/2))
		if err := w.Bootstrap(n/2, func(slot int) bool { return slot < byzBudget }); err != nil {
			return err
		}
		clusters := w.Clusters()
		target := clusters[0]
		trials := 40 * s.Trials
		var mean metrics.Welford
		exceed := 0
		for i := 0; i < trials; i++ {
			if err := w.ForceExchange(target); err != nil {
				return err
			}
			frac := float64(w.Byz(target)) / float64(w.Size(target))
			mean.Add(frac)
			if frac > tau*(1+eps) {
				exceed++
			}
		}
		size := w.Size(target)
		bound := math.Exp(-eps * eps * tau * float64(size) / 3)
		frag.AddRow(n, k, size, trials, mean.Mean(),
			float64(exceed)/float64(trials), bound)
		return nil
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the empirical tail must decay with K (cluster size) and stay below the bound; eps=0.5 keeps the Chernoff expression non-vacuous at laptop-scale cluster sizes",
		"tau(1+eps) = 0.45 here: the probability that one full exchange leaves a cluster nearly captured")
	return t, nil
}

// E3DriftRecovery tests Lemmas 2-3: a cluster polluted above tau recovers
// below tau(1+eps/2) within O(log N) exchanges, and while between the
// thresholds never exceeds tau(1+eps) w.h.p.
func E3DriftRecovery(s Scale) (*Table, error) {
	const tau = 0.20
	t := &Table{
		ID:    "E3",
		Title: "Pollution decay: exchanges needed to shed concentrated Byzantine mass",
		Claim: "Lemmas 2-3: from a fraction near 1/3, O(log N) exchanges return the cluster below tau(1+eps/2) whp, without exceeding tau(1+eps) on the way",
		Columns: []string{"N", "p0", "trials", "meanRecovery(exch)",
			"p95Recovery", "logN", "maxFracSeen"},
	}
	// Fan out at per-trial granularity: every trial builds its own world
	// from a trial-derived seed, so trials of one (N, p0) cell run
	// concurrently; results are folded back in trial order.
	p0s := []float64{0.30, 0.40}
	type trialCell struct {
		n     int
		p0    float64
		trial int
	}
	type trialOut struct {
		steps   float64
		maxSeen float64
	}
	var cells []trialCell
	for _, n := range s.Ns {
		for _, p0 := range p0s {
			for trial := 0; trial < s.Trials; trial++ {
				cells = append(cells, trialCell{n, p0, trial})
			}
		}
	}
	outs, err := mapCells(s.Parallel, len(cells), func(i int) (trialOut, error) {
		c := cells[i]
		cfg := s.coreConfig(c.n)
		cfg.Seed = s.Seed + uint64(c.trial)
		w, err := core.NewWorld(cfg)
		if err != nil {
			return trialOut{}, err
		}
		byzBudget := int(tau * float64(c.n/2))
		if err := w.Bootstrap(c.n/2, func(slot int) bool { return slot < byzBudget }); err != nil {
			return trialOut{}, err
		}
		target := w.Clusters()[0]
		if err := pollute(w, target, c.p0); err != nil {
			return trialOut{}, err
		}
		goal := tau * (1 + 0.5*0.5) // tau(1+eps/2) with eps=0.5
		steps := 0
		limit := 40 * int(math.Log2(float64(c.n)))
		maxSeen := 0.0
		for ; steps < limit; steps++ {
			frac := float64(w.Byz(target)) / float64(w.Size(target))
			if frac > maxSeen {
				maxSeen = frac
			}
			if frac <= goal {
				break
			}
			if err := w.ForceExchange(target); err != nil {
				return trialOut{}, err
			}
		}
		return trialOut{steps: float64(steps), maxSeen: maxSeen}, nil
	})
	if err != nil {
		return nil, err
	}
	next := 0
	for _, n := range s.Ns {
		for _, p0 := range p0s {
			var rec metrics.Digest
			maxSeen := 0.0
			for trial := 0; trial < s.Trials; trial++ {
				out := outs[next]
				next++
				rec.Add(out.steps)
				if out.maxSeen > maxSeen {
					maxSeen = out.maxSeen
				}
			}
			t.AddRow(n, p0, rec.N(), rec.Mean(), rec.Quantile(0.95),
				math.Log2(float64(n)), maxSeen)
		}
	}
	t.Notes = append(t.Notes,
		"a single full exchange resamples every member uniformly, so recovery is expected in O(1) exchanges — well inside the lemmas' O(log N) budget of single-node exchanges")
	return t, nil
}

// pollute raises cluster c's Byzantine fraction to p0 by corrupting its
// honest members (and keeps the global budget by un-corrupting strays
// elsewhere).
func pollute(w *core.World, c ids.ClusterID, p0 float64) error {
	want := int(math.Ceil(p0 * float64(w.Size(c))))
	members := w.Members(c)
	r := xrand.New(0xBAD)
	for _, x := range members {
		if w.Byz(c) >= want {
			break
		}
		if !w.IsByzantine(x) {
			if err := w.SetCorrupted(x, true); err != nil {
				return err
			}
			// Keep the global count steady: release one Byzantine node
			// from elsewhere.
			for attempts := 0; attempts < 64; attempts++ {
				y, ok := w.RandomByzantineNode(r)
				if !ok {
					break
				}
				if cy, _ := w.ClusterOf(y); cy != c {
					if err := w.SetCorrupted(y, false); err != nil {
						return err
					}
					break
				}
			}
		}
	}
	if w.Byz(c) < want {
		return fmt.Errorf("experiments: could not pollute %v to %.2f", c, p0)
	}
	return nil
}
